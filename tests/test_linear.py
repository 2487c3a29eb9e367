"""The element stores: one context, operand check and linear structure in
the base, one sum of parts per store, coercing public constructors and
index checks, and the term-dict oracle.

Every result of ``+``, ``-``, ``scale`` and each same-type product must
hold only nonzero coefficients of the ring's type, in a dict of its own.
Each keyed element (``linear._PackedSums``) and each kernel that reads and
makes its packed sums is checked through the ``terms`` view against the
term-dict arithmetic it replaced (``linear_oracle``), on operands with
``Fraction`` coefficients and up to three powers of h that are packed
before any view of them exists.
"""

import operator
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
    jordan,
    random_coefficient,
    random_dimension,
    random_gl,
    random_hh0,
    random_path_element,
    random_sym_element,
    small_quivers,
    two_loop,
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
    """The context, the operand check, scalar coercion, the ``terms`` view
    and the linear structure live in ``LinearCombination`` only; each store
    supplies the sum of parts, the view's unpacking, equality and truth and
    the trusted constructor of its results; no element class defines any of
    them, and ``__rmul__`` stays where it was, so ``2 * HH0Element`` still
    raises ``TypeError``."""
    base_only = ("_context", "_check_compatible", "_scalars", "__getattr__", "__add__", "__sub__", "__neg__", "scale")
    per_store = ("_summed", "_unpacked", "__eq__", "__bool__")
    for store, trusted in ((_PackedSums, "_from_sums"), (_PackedOperator, "_from_packed")):
        assert all(name in vars(store) for name in (*per_store, trusted))
        assert not any(name in vars(store) for name in base_only)
    for cls in ELEMENT_TYPES:
        store = _PackedSums if issubclass(cls, _PackedSums) else _PackedOperator
        for name in (*base_only, *per_store, "_from_sums", "_from_packed", "_with_terms", "_given"):
            assert name not in vars(cls), (cls.__name__, name)
        assert vars(cls).get("__rmul__", LinearCombination.scale) is LinearCombination.scale
    assert "__rmul__" in vars(_PackedOperator) and "__rmul__" not in vars(_PackedSums)
    assert [cls.__name__ for cls in ELEMENT_TYPES if "__rmul__" in vars(cls)] == [
        "PathAlgebraElement", "QPAElement", "SymElement"
    ]
    assert all(name in vars(LinearCombination) for name in base_only)
    assert not any(name in vars(LinearCombination) for name in (*per_store, "_with_terms", "_given"))
    assert "_given" not in _PackedSums.__slots__


#: one element of each type over a quiver and a dimension vector
MAKERS = {
    "weyl": lambda q, d: WeylElement.position(q, d, 0, 1, 1),
    "poly": lambda q, d: PolyElement.coordinate(q, d, 0, True, 1, 1),
    "gl": lambda q, d: GlElement.identity(q, d),
    "path": lambda q, d: PathAlgebraElement.of_path(q, nhq.make_path(q, [nhq.Letter(0, False)])),
    "hh0": lambda q, d: HH0Element.of(q, nhq.canonical_necklace(q, [nhq.Letter(0, False)])),
    "tensor": lambda q, d: TensorElement(q, {(nhq.Path.trivial(0), nhq.Path.trivial(0)): 1}),
    "qpa": lambda q, d: QPAElement.unit(q),
    "sym": lambda q, d: SymElement.of(q, ()),
}
#: every same-type binary kernel with the kind of its operands, then + and -
KERNELS = [
    (weyl_mul, "weyl"),
    (weyl_commutator, "weyl"),
    (poly_mul, "poly"),
    (poisson, "poly"),
    (gl_commutator, "gl"),
    (path_mul, "path"),
    (necklace_bracket, "hh0"),
    (double_bracket, "path"),
    (qpa_mul, "qpa"),
    (sym_mul, "sym"),
    *[(op, kind) for op in (operator.add, operator.sub) for kind in MAKERS],
]
OPERATOR_RINGS = {"weyl": "WeylElement", "poly": "PolyElement"}


@pytest.mark.parametrize(
    "kernel, kind, left, right, message",
    [
        pytest.param(kernel, kind, (jordan(), (2,)), (two_loop(), (2,)), "disagree on quiver", id=f"{kernel.__name__}-{kind}")
        for kernel, kind in KERNELS
    ]
    + [
        pytest.param(
            kernel, kind, (jordan(), (2,)), (jordan(), (3,)), f"^{OPERATOR_RINGS[kind]} operands disagree on quiver and dim$",
            id=f"{kernel.__name__}-{kind}-dim",
        )
        for kernel, kind in KERNELS
        if kind in OPERATOR_RINGS
    ],
)
def test_operands_over_another_context_are_refused(kernel, kind, left, right, message):
    """Every same-type binary kernel, ``+`` and ``-`` check their operands
    in ``LinearCombination._check_compatible``, which names the slots."""
    x, y = MAKERS[kind](*left), MAKERS[kind](*right)
    for a, b in ((x, y), (y, x)):
        with pytest.raises(nhq.MismatchError, match=message):
            kernel(a, b)


@pytest.mark.parametrize(
    "kernel, left, right",
    [(weyl_mul, "weyl", "poly"), (poisson, "poly", "weyl"), (necklace_bracket, "hh0", "path"), (path_mul, "path", "hh0")],
)
def test_an_operand_of_another_type_is_refused(L2, kernel, left, right):
    """A polynomial is not read as an operator, nor a path as a cycle, nor
    a cycle as a path: the kernel raises instead."""
    x, y = MAKERS[left](L2, (2,)), MAKERS[right](L2, (2,))
    with pytest.raises(nhq.MismatchError, match=f"^{type(x).__name__} and {type(y).__name__} operands do not combine$"):
        kernel(x, y)


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
