import random
from fractions import Fraction

import pytest

from nhq import (
    Character,
    CompositionError,
    DimensionError,
    GlElement,
    HBarPolynomial,
    HH0Element,
    Letter,
    Path,
    PathAlgebraElement,
    PolyElement,
    QPAElement,
    WeylElement,
    WorkLimitError,
    block_matrix,
    chi_sign_variants,
    classical_symbol,
    gauge_act,
    gl_basis,
    gl_commutator,
    idempotent_class,
    make_configuration,
    make_dimension_vector,
    moment_block_matrix,
    path_matrix_entry,
    poisson,
    quantum_moment,
    tau,
    tau_kernel,
    weyl_commutator,
    weyl_mul,
)
from nhq.necklace import Necklace, canonical_necklace
from nhq import work
from nhq.quiver import make_quiver
from nhq.schedler import marked_word
from nhq.repspace import poly_mul, rational_nullspace
from nhq.sampling import all_dimension_vectors, random_gl, random_quiver, random_dimension

H = HBarPolynomial.h()


def _pos(q, d, a, r, c):
    return WeylElement.position(q, d, a, r, c)


def _der(q, d, a, r, c):
    return WeylElement.derivative(q, d, a, r, c)


def test_dimension_vector_validation(A2):
    assert make_dimension_vector(A2, {"1": 2, "2": 3}) == (2, 3)
    with pytest.raises(DimensionError):
        make_dimension_vector(A2, {"1": 2})
    with pytest.raises(DimensionError):
        make_dimension_vector(A2, {"1": 2, "2": 0})
    with pytest.raises(DimensionError):
        make_dimension_vector(A2, {"1": 2, "2": 1, "zzz": 1})


def test_coordinate_bounds(A2):
    d = (1, 2)
    # (a)_{p,q} has p <= d_2 = 2, q <= d_1 = 1
    PolyElement.coordinate(A2, d, 0, False, 2, 1)
    with pytest.raises(DimensionError):
        PolyElement.coordinate(A2, d, 0, False, 1, 2)
    with pytest.raises(DimensionError):
        WeylElement.position(A2, d, 0, 3, 1)


@pytest.mark.parametrize(
    "make",
    [
        # arrow -1 would read the last arrow, y, and print as [y]_{1,1}
        lambda q: WeylElement.position(q, (2,), -1, 1, 1),
        lambda q: WeylElement.position(q, (2,), 5, 1, 1),
        lambda q: WeylElement.derivative(q, (2,), True, 1, 1),
        lambda q: WeylElement.position(q, (2,), 0, True, 1),
        lambda q: WeylElement.position(q, (2,), 0, 1.0, 1),
        lambda q: WeylElement.derivative(q, (2,), 0, 1, 0),
        lambda q: PolyElement.coordinate(q, (2,), 1, True, 1, 3),
        lambda q: PolyElement.coordinate(q, (2,), 0, False, 2.0, 1),
        lambda q: GlElement(q, (2,), {(-1, 1, 1): 1}),
        lambda q: GlElement(q, (2,), {(3, 1, 1): 1}),
        lambda q: GlElement(q, (2,), {(0, True, 1): 1}),
        lambda q: GlElement(q, (2,), {(0, 1, 2.0): 1}),
        lambda q: GlElement(q, (2,), {(0, 1, 3): 1}),
    ],
    ids=[
        "arrow-negative", "arrow-past-end", "arrow-bool", "row-bool", "row-float", "col-zero",
        "poly-col-past-end", "poly-row-float",
        "gl-vertex-negative", "gl-vertex-past-end", "gl-row-bool", "gl-col-float", "gl-col-past-end",
    ],
)
def test_a_bad_index_is_refused(L2, make):
    """An index of a coordinate, an arrow or a gl basis element is an
    ``int`` in range: a ``bool``, a ``float``, a negative or a too large
    one raises ``DimensionError``, never an ``IndexError`` or a silently
    different element."""
    with pytest.raises(DimensionError, match="out of range"):
        make(L2)


def _a21(A2):
    return PolyElement.coordinate(A2, (1, 2), 0, False, 2, 1)


@pytest.mark.parametrize(
    "make",
    [
        # row or column 0 would wrap around to the last one
        lambda J, A2: moment_block_matrix(J, (2,))[0][0, 0],
        lambda J, A2: moment_block_matrix(J, (2,))[0][1, 3],
        lambda J, A2: moment_block_matrix(J, (2,))[0][True, 1],
        # vertex -1 would read the last vertex, and True as 1
        lambda J, A2: gauge_act(A2, (1, 2), -1, 2, 2, _a21(A2)),
        lambda J, A2: gauge_act(A2, (1, 2), 0, True, True, _a21(A2)),
        lambda J, A2: gauge_act(A2, (1, 2), 2, 1, 1, _a21(A2)),
        # a dimension vector of the wrong length, or with a zero, at construction
        lambda J, A2: WeylElement.position(J, (2, 3), 0, 1, 1),
        lambda J, A2: WeylElement.constant(J, (0,), 1),
        lambda J, A2: PolyElement.constant(A2, (1,), 1),
        lambda J, A2: GlElement(J, (2, 3), {(0, 1, 1): 1}),
        lambda J, A2: GlElement(J, (0,), {}),
    ],
    ids=[
        "block-row-zero", "block-col-past-end", "block-row-bool",
        "gauge-vertex-negative", "gauge-indices-bool", "gauge-vertex-past-end",
        "weyl-dim-too-long", "weyl-dim-zero", "poly-dim-too-short", "gl-dim-too-long", "gl-dim-zero",
    ],
)
def test_a_bad_context_is_refused_at_every_public_entry(J, A2, make):
    """A block entry, a gauge index or an element's dimension vector that
    is out of range raises ``DimensionError`` where it is given, never an
    ``IndexError`` or a silently different, valid one."""
    with pytest.raises(DimensionError):
        make(J, A2)


_X = Letter(0, False)


@pytest.mark.parametrize(
    "make, error",
    [
        # True would be read as row or column 1
        (lambda J, A2: path_matrix_entry(J, (2,), Path((_X,)), True, 1), DimensionError),
        (lambda J, A2: path_matrix_entry(J, (2,), Path((_X,)), 1, True), DimensionError),
        # True would be read as mark 1, or as vertex 1
        (lambda J, A2: marked_word(J, canonical_necklace(J, (_X, _X.star())), 0, True), CompositionError),
        (lambda J, A2: marked_word(A2, Necklace(1, ()), True, 0), CompositionError),
        # True would be kept as an idempotent factor, or taken as height 1
        (lambda J, A2: make_configuration(A2, (), (True,)), CompositionError),
        (lambda J, A2: make_configuration(J, [[(_X, True)]]), CompositionError),
        # True would be kept as a dimension, which every caller then accepts
        (lambda J, A2: make_dimension_vector(J, (True,)), DimensionError),
        (lambda J, A2: make_dimension_vector(A2, {"1": 1, "2": True}), DimensionError),
        # True would read the coefficient of h^1
        (lambda J, A2: HBarPolynomial((1, 2)).coefficient(True), DimensionError),
        # True would be kept as the idempotent class, or the trivial path, at vertex 1
        (lambda J, A2: HH0Element.of(A2, idempotent_class(True)), CompositionError),
        (lambda J, A2: PathAlgebraElement.of_path(A2, Path((), True)), CompositionError),
        (lambda J, A2: path_matrix_entry(A2, (1, 2), Path((), True), 1, 1), CompositionError),
    ],
    ids=[
        "path-entry-row", "path-entry-col", "marked-word-mark", "marked-word-vertex",
        "configuration-idempotent", "configuration-height", "dimension-tuple", "dimension-dict",
        "hbar-power", "idempotent-class", "trivial-path", "path-entry-trivial-path",
    ],
)
def test_a_bool_index_is_refused_at_every_public_entry(J, A2, make, error):
    """A ``bool`` is an ``int`` to Python, but no entry reads one as an
    index, a vertex, a height or a dimension: each refuses it through the
    one check ``errors._in_range``, with the error it raises for any other
    index out of range."""
    with pytest.raises(error):
        make(J, A2)


_A = Letter(0, False)  # the arrow a: 1 -> 2 of A2


@pytest.mark.parametrize(
    "make",
    [
        lambda A2: HH0Element.of(A2, idempotent_class(7)),
        lambda A2: HH0Element.of(A2, idempotent_class(-1)),
        lambda A2: PathAlgebraElement.of_path(A2, Path((_A, _A))),
        lambda A2: PathAlgebraElement.of_path(A2, Path((Letter(5, False),))),
        lambda A2: PathAlgebraElement.of_path(A2, Path((), 5)),
        lambda A2: PathAlgebraElement.trivial(A2, 2),
        lambda A2: path_matrix_entry(A2, (1, 2), Path((_A, _A)), 1, 1),
        lambda A2: path_matrix_entry(A2, (1, 2), Path((), 5), 1, 1),
    ],
    ids=[
        "idempotent-class-past-end", "idempotent-class-negative", "path-not-composable", "path-unknown-arrow",
        "trivial-path-past-end", "trivial-past-end", "path-entry-not-composable", "path-entry-trivial-past-end",
    ],
)
def test_a_keyed_element_refuses_a_bad_vertex_or_path(A2, make):
    """An idempotent class at no vertex of the quiver, a word of letters
    that are not the quiver's or do not compose right to left, and a
    trivial path at no vertex raise ``CompositionError`` where they are
    given, as ``make_path`` and ``make_configuration`` do, never a
    ``KeyError`` or ``IndexError`` when the element is printed or traced,
    or a silently wrong product."""
    with pytest.raises(CompositionError):
        make(A2)


@pytest.mark.parametrize("kernel", [weyl_mul, weyl_commutator, poly_mul, poisson])
def test_a_product_is_charged_its_monomial_pairs_before_any_pair(J, monkeypatch, kernel):
    """Each operator and polynomial product counts |x| * |y| monomial pairs
    against ``work.MAX_INDEX_ASSIGNMENTS`` before it forms any: refused one
    below the count, with ``WorkLimitError``, and formed at it."""
    d = (2,)
    if kernel in (weyl_mul, weyl_commutator):
        xs = [_pos(J, d, 0, r, c) for r in (1, 2) for c in (1, 2)][:3]
        ys = [_der(J, d, 0, r, c) for r in (1, 2) for c in (1, 2)]
    else:
        xs = [PolyElement.coordinate(J, d, 0, False, r, c) for r in (1, 2) for c in (1, 2)][:3]
        ys = [PolyElement.coordinate(J, d, 0, True, r, c) for r in (1, 2) for c in (1, 2)]
    x, y = sum(xs[1:], xs[0]), sum(ys[1:], ys[0])
    pairs = 3 * 4
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", pairs - 1)
    with pytest.raises(WorkLimitError, match=f"product has {pairs} monomial pairs, above the limit {pairs - 1}"):
        kernel(x, y)
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", pairs)
    assert kernel(x, y)


# -- Weyl products -----------------------------------------------------------


def test_weyl_single_relation(J):
    d = (1,)
    lhs = weyl_mul(_der(J, d, 0, 1, 1), _pos(J, d, 0, 1, 1))
    rhs = weyl_mul(_pos(J, d, 0, 1, 1), _der(J, d, 0, 1, 1)) + WeylElement.constant(
        J, d, H
    )
    assert lhs == rhs


def test_weyl_commuting_positions(J):
    d = (2,)
    x12 = _pos(J, d, 0, 1, 2)
    assert weyl_mul(x12, x12).terms == {((((0, 1, 2), 2),), ()): 1}


def test_weyl_unit(J):
    d = (2,)
    one = WeylElement.constant(J, d, 1)
    D = weyl_mul(_pos(J, d, 0, 1, 2), _der(J, d, 0, 2, 1))
    assert weyl_mul(one, D) == D
    assert weyl_mul(D, one) == D


def test_weyl_higher_contractions(J):
    # d^2 x^2 = x^2 d^2 + 4h x d + 2 h^2
    d = (1,)
    x = _pos(J, d, 0, 1, 1)
    dd = _der(J, d, 0, 1, 1)
    lhs = weyl_mul(weyl_mul(dd, dd), weyl_mul(x, x))
    rhs = (
        weyl_mul(weyl_mul(x, x), weyl_mul(dd, dd))
        + weyl_mul(x, dd).scale(4 * H)
        + WeylElement.constant(J, d, 2 * H * H)
    )
    assert lhs == rhs


def test_weyl_associativity_and_grading_randomized(J, A2):
    rng = random.Random(31)

    def random_op(q, d):
        out = WeylElement.constant(q, d, 1)
        for _ in range(rng.randint(1, 3)):
            ai = rng.randrange(len(q.arrows))
            arrow = q.arrows[ai]
            if rng.random() < 0.5:
                r = rng.randint(1, d[arrow.target])
                c = rng.randint(1, d[arrow.source])
                out = weyl_mul(out, _pos(q, d, ai, r, c))
            else:
                r = rng.randint(1, d[arrow.target])
                c = rng.randint(1, d[arrow.source])
                out = weyl_mul(out, _der(q, d, ai, r, c))
        return out

    for q in (J, A2):
        for _ in range(15):
            d = random_dimension(rng, q)
            x, y, z = (random_op(q, d) for _ in range(3))
            assert weyl_mul(weyl_mul(x, y), z) == weyl_mul(x, weyl_mul(y, z))
            degs_x, degs_y = x.rees_degrees(), y.rees_degrees()
            if len(degs_x) == 1 and len(degs_y) == 1:
                prod = weyl_mul(x, y)
                assert prod.rees_degrees() <= {min(degs_x) + min(degs_y)}


def test_classical_symbol(J):
    d = (1,)
    anything = weyl_mul(_pos(J, d, 0, 1, 1), _der(J, d, 0, 1, 1))
    assert classical_symbol(anything.scale(H)).is_zero()
    sym = classical_symbol(anything)
    expected = PolyElement.coordinate(J, d, 0, False, 1, 1) * PolyElement.coordinate(
        J, d, 0, True, 1, 1
    )
    assert sym == expected
    # the normal-ordered product of d then x has the same symbol
    assert classical_symbol(weyl_mul(_der(J, d, 0, 1, 1), _pos(J, d, 0, 1, 1))) == expected


def test_classical_symbol_is_multiplicative_mod_h(J):
    rng = random.Random(32)
    d = (2,)
    for _ in range(15):
        ops = []
        for _ in range(2):
            acc = WeylElement.constant(J, d, 1)
            for _ in range(rng.randint(1, 3)):
                r, c = rng.randint(1, 2), rng.randint(1, 2)
                factory = _pos if rng.random() < 0.5 else _der
                acc = weyl_mul(acc, factory(J, d, 0, r, c))
            ops.append(acc)
        assert classical_symbol(weyl_mul(ops[0], ops[1])) == classical_symbol(
            ops[0]
        ) * classical_symbol(ops[1])


# -- Poisson bracket ---------------------------------------------------------


def test_poisson_conjugate_pair(J):
    d = (1,)
    x = PolyElement.coordinate(J, d, 0, False, 1, 1)
    xs = PolyElement.coordinate(J, d, 0, True, 1, 1)
    assert poisson(x, xs) == PolyElement.constant(J, d, 1)
    assert poisson(xs, x) == PolyElement.constant(J, d, -1)


def test_poisson_unpaired_and_self(J):
    d = (2,)
    x12 = PolyElement.coordinate(J, d, 0, False, 1, 2)
    x21 = PolyElement.coordinate(J, d, 0, False, 2, 1)
    assert poisson(x12, x21).is_zero()
    f = x12 * x21 + x12.scale(3)
    assert poisson(f, f).is_zero()


def test_poisson_matches_index_rule(J):
    # {(x)_{ij}, (x')_{uv}} = delta_{iv} delta_{ju}
    d = (2,)
    for i in (1, 2):
        for j in (1, 2):
            for u in (1, 2):
                for v in (1, 2):
                    got = poisson(
                        PolyElement.coordinate(J, d, 0, False, i, j),
                        PolyElement.coordinate(J, d, 0, True, u, v),
                    )
                    expected = PolyElement.constant(
                        J, d, 1 if (i == v and j == u) else 0
                    )
                    assert got == expected


# -- tau, kernel, characters -------------------------------------------------


def test_tau_a2_single_entry(A2):
    d = (1, 1)
    t1 = tau(A2, d, GlElement.elementary(A2, d, 0, 1, 1))
    assert t1 == weyl_mul(_pos(A2, d, 0, 1, 1), _der(A2, d, 0, 1, 1))
    t2 = tau(A2, d, GlElement.elementary(A2, d, 1, 1, 1))
    assert t2 == weyl_mul(_pos(A2, d, 0, 1, 1), _der(A2, d, 0, 1, 1)).scale(-1)


def test_tau_vanishes_on_jordan_d1(J):
    d = (1,)
    assert tau(J, d, GlElement.elementary(J, d, 0, 1, 1)).is_zero()


def test_tau_no_arrows():
    q = make_quiver(["u", "w"], [])
    d = (2, 2)
    for key in gl_basis(q, d):
        assert tau(q, d, GlElement.elementary(q, d, *key)).is_zero()


def test_tau_is_lie_morphism():
    rng = random.Random(33)
    for _ in range(15):
        q = random_quiver(rng, 2, 2)
        d = random_dimension(rng, q)
        v = random_gl(rng, q, d)
        w = random_gl(rng, q, d)
        comm = weyl_commutator(tau(q, d, v), tau(q, d, w))
        assert comm.is_divisible_by_h()
        assert comm.div_h() == tau(q, d, gl_commutator(v, w))


def test_tau_kernel_examples(J, A2):
    kernel = tau_kernel(J, (1,))
    assert len(kernel) == 1 and kernel[0].terms == {(0, 1, 1): 1}
    kernel = tau_kernel(A2, (1, 1))
    assert len(kernel) == 1
    assert kernel[0].terms == {(0, 1, 1): 1, (1, 1, 1): 1}
    q = make_quiver(["u", "w"], [])
    assert len(tau_kernel(q, (2, 1))) == 5  # all of gl_2 + gl_1


def test_tau_kernel_contains_identity_block_scalars(A3P):
    d = make_dimension_vector(A3P, {"0": 2, "1": 2, "2": 2, "inf": 1})
    kernel = tau_kernel(A3P, d)
    assert len(kernel) == 1
    vec = kernel[0]
    identity = GlElement.identity(A3P, d)
    scale = next(iter(vec.terms.values()))
    assert vec == identity.scale(scale)


def test_rational_nullspace():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    basis = rational_nullspace(rows, 2)
    assert len(basis) == 1
    x = basis[0]
    assert x[0] + 2 * x[1] == 0


def test_chi_from_r_values(J, A2):
    def chi_from_r(quiver, dim, r=None):
        return chi_sign_variants(quiver, dim, r)["main"]

    assert chi_from_r(J, (3,)).values == (Fraction(-3),)
    assert chi_from_r(A2, (1, 1)).values == (Fraction(-1), Fraction(0))
    base = chi_from_r(A2, (1, 1))
    shifted = chi_from_r(A2, (1, 1), (Fraction(2), Fraction(5)))
    assert tuple(s - b for s, b in zip(shifted.values, base.values)) == (
        Fraction(2),
        Fraction(5),
    )


def test_chi_sign_variants(A2):
    variants = chi_sign_variants(A2, (1, 1), (Fraction(1), Fraction(0)))
    assert variants["main"].values == (Fraction(0), Fraction(0))
    assert variants["statement"].values == (Fraction(2), Fraction(0))
    assert variants["proof_line"].values == (Fraction(-2), Fraction(0))


def test_character_evaluation(A2):
    chi = Character(A2, (Fraction(2), Fraction(-1)))
    d = (2, 2)
    v = GlElement(A2, d, {(0, 1, 1): 1, (0, 2, 2): 1, (1, 1, 1): 3, (0, 1, 2): 9})
    assert chi.evaluate(v) == 2 * 2 - 3



def test_gl_element_checks_every_key_of_a_dict_or_of_pairs(J):
    """``GlElement`` refuses a key outside gl_d, whether its terms come as a
    dict or as (key, coefficient) pairs, in a list or an iterator."""
    for terms in ({(0, 3, 1): 1}, [((0, 1, 1), 1), ((0, 1, 3), 1)], iter([((0, 0, 1), 1)])):
        with pytest.raises(DimensionError, match="out of range"):
            GlElement(J, (2,), terms)

# -- gauge action ------------------------------------------------------------


def test_gauge_act_kills_constants(J):
    d = (2,)
    f = PolyElement.constant(J, d, 7)
    assert gauge_act(J, d, 0, 1, 2, f).is_zero()


def test_gauge_act_formula_jordan(J):
    # the coordinate rule: value delta_{s,i} delta_{p,col} x_{row,q}
    # minus delta_{t,i} delta_{row,q} x_{p,col}
    d = (2,)
    x22 = PolyElement.coordinate(J, d, 0, False, 2, 2)
    # (p,q) = (2,1): first clause fires (col 2 = p), second does not (row 2 != q)
    assert gauge_act(J, d, 0, 2, 1, x22) == PolyElement.coordinate(J, d, 0, False, 2, 1)
    # (p,q) = (1,2): first clause off (col 2 != 1), second on (row 2 = q = 2)
    assert gauge_act(J, d, 0, 1, 2, x22) == PolyElement.coordinate(
        J, d, 0, False, 1, 2
    ).scale(-1)


def test_gauge_act_leibniz(J):
    d = (2,)
    x11 = PolyElement.coordinate(J, d, 0, False, 1, 1)
    x12 = PolyElement.coordinate(J, d, 0, False, 1, 2)
    f = x11 * x12
    lhs = gauge_act(J, d, 0, 1, 1, f)
    rhs = gauge_act(J, d, 0, 1, 1, x11) * x12 + x11 * gauge_act(J, d, 0, 1, 1, x12)
    assert lhs == rhs


def test_gauge_act_matches_tau_action(J, A2):
    # gauge_act(i,p,q,-) is the action induced by tau(e^i_{q,p})
    for q, dims in ((J, [(1,), (2,)]), (A2, [(1, 1), (2, 2), (2, 1)])):
        for d in dims:
            for (i, p, pq) in gl_basis(q, d):
                t = tau(q, d, GlElement.elementary(q, d, i, pq, p))
                for ai, arrow in enumerate(q.arrows):
                    for starred in (False, True):
                        rmax = d[arrow.source] if starred else d[arrow.target]
                        cmax = d[arrow.target] if starred else d[arrow.source]
                        for row in range(1, rmax + 1):
                            for col in range(1, cmax + 1):
                                f = PolyElement.coordinate(q, d, ai, starred, row, col)
                                if starred:
                                    lifted = WeylElement.derivative(q, d, ai, col, row)
                                else:
                                    lifted = WeylElement.position(q, d, ai, row, col)
                                comm = weyl_commutator(t, lifted)
                                assert comm.is_divisible_by_h()
                                assert classical_symbol(comm.div_h()) == gauge_act(
                                    q, d, i, p, pq, f
                                )


# -- block matrices and the quantum moment -----------------------------------


def test_block_matrix_trivial_path(A2):
    d = (2, 3)
    m = block_matrix(PathAlgebraElement.trivial(A2, 1), d, "classical")
    assert m.source == m.target == 1
    for p in range(1, 4):
        for q in range(1, 4):
            expected = PolyElement.constant(A2, d, 1 if p == q else 0)
            assert m[p, q] == expected


def test_block_matrix_single_letter(J):
    d = (2,)
    m = block_matrix(
        PathAlgebraElement.of_path(J, Path((Letter(0, False),))), d, "classical"
    )
    for p in (1, 2):
        for q in (1, 2):
            assert m[p, q] == PolyElement.coordinate(J, d, 0, False, p, q)


def test_block_matrix_word_contracts_indices(A2):
    # (a' a) is a 1x1-block cycle at vertex "1" when d = (1, 2)
    d = (1, 2)
    a, as_ = Letter(0, False), Letter(0, True)
    from nhq.quiver import make_path

    elem = PathAlgebraElement.of_path(A2, make_path(A2, (as_, a)))
    m = block_matrix(elem, d, "classical")
    expected = PolyElement(A2, d)
    for k in (1, 2):
        expected = expected + PolyElement.coordinate(
            A2, d, 0, True, 1, k
        ) * PolyElement.coordinate(A2, d, 0, False, k, 1)
    assert m[1, 1] == expected


def test_block_matrix_refuses_an_element_without_one_block(J, A2):
    a, as_ = Letter(0, False), Letter(0, True)
    one_word = lambda q, *letters: make_configuration(q, [tuple((x, t + 1) for t, x in enumerate(letters))])
    cases = [
        (PathAlgebraElement(A2), "classical", ValueError, "zero element"),
        (PathAlgebraElement.unit(A2), "classical", ValueError, "not homogeneous"),
        (QPAElement(J, {make_configuration(J, [((a, 1),), ((as_, 2),)]): 1}), "quantum", ValueError, "single-component"),
        (QPAElement(J, {make_configuration(J, [((a, 1),)], (0,)): 1}), "quantum", ValueError, "single-component"),
        (QPAElement(A2, {one_word(A2, a, as_): 1, one_word(A2, as_, a): 1}), "quantum", ValueError, "not homogeneous"),
        (QPAElement(J, {one_word(J, a): 1}), "classical", ValueError, "only have quantum matrices"),
        (QPAElement(J, {one_word(J, a): 1}), "neither", ValueError, "unknown mode"),
        (HBarPolynomial.h(), "quantum", TypeError, "HBarPolynomial"),
    ]
    for x, mode, error, message in cases:
        with pytest.raises(error, match=message):
            block_matrix(x, (1,) * len(getattr(x, "quiver", J).vertices), mode)


def test_moment_block_matrix_jordan_d1(J):
    d = (1,)
    blocks = moment_block_matrix(J, d)
    assert blocks[0][1, 1] == WeylElement.constant(J, d, -H)


def test_quantum_moment_is_minus_tau_minus_weighted_h(J, A2, A3P):
    for q in (J, A2, A3P):
        for d in all_dimension_vectors(q, 2)[:4]:
            for (i, p, pq) in gl_basis(q, d):
                e = GlElement.elementary(q, d, i, p, pq)
                lhs = quantum_moment(q, d, e)
                rhs = tau(q, d, e).scale(-1)
                if p == pq:
                    weight = -sum(d[a.target] for a in q.arrows if a.source == i)
                    rhs = rhs + WeylElement.constant(q, d, HBarPolynomial((0, weight)))
                assert lhs == rhs


def test_quantum_moment_no_arrows():
    q = make_quiver(["u"], [])
    d = (2,)
    for key in gl_basis(q, d):
        assert quantum_moment(q, d, GlElement.elementary(q, d, *key)).is_zero()


def test_quantum_moment_r_shift(J):
    d = (2,)
    r = (Fraction(5),)
    for (i, p, q_) in gl_basis(J, d):
        e = GlElement.elementary(J, d, i, p, q_)
        diff = quantum_moment(J, d, e, r) - quantum_moment(J, d, e)
        if p == q_:
            assert diff == WeylElement.constant(J, d, HBarPolynomial((0, Fraction(5))))
        else:
            assert diff.is_zero()


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(2), Fraction(-3, 2)])
def test_a_fractional_shift_meets_the_diagonal_as_the_public_sum_does(J, r):
    # h r is added to each diagonal entry on packed numerators over the
    # denominator of r: it equals the public sum of the entry and h r, and
    # at r = 2 it cancels the entry's -2 h; 2 e^0_{1,1} cancels the
    # denominator 2 of r = 1/2 or -3/2 in the quantum moment, and chi = r - 2
    # is what the packed right-hand sides -tau + h chi then read
    from nhq import repspace

    d = (2,)
    plain, shifted = moment_block_matrix(J, d)[0], moment_block_matrix(J, d, (r,))
    for p in (1, 2):
        for k in (1, 2):
            public = plain[p, k] + WeylElement.constant(J, d, H * r if p == k else 0)
            assert shifted[0][p, k] == public
    assert (((), ()) in shifted[0][1, 1].terms) == (r != 2)
    moment = quantum_moment(J, d, GlElement.elementary(J, d, 0, 1, 1, 2), (r,))
    assert moment == (plain[1, 1] + WeylElement.constant(J, d, H * r)).scale(2)
    assert all(type(c) is int for poly in moment.terms.values() for c in poly.coeffs)
    assert list(repspace.moment_differences(J, d, shifted, (r - 2,))) == []
    assert len(list(repspace.moment_differences(J, d, shifted, (r,)))) == 2


def test_gl_invariance_of_quantum_traces(J):
    from nhq.schedler import lift_necklace
    from nhq.trace import trace_quantum
    from nhq import canonical_necklace

    rng = random.Random(34)
    d = (2,)
    x, xs = Letter(0, False), Letter(0, True)
    X = trace_quantum(lift_necklace(J, canonical_necklace(J, (x, xs))), d)
    for _ in range(5):
        v = random_gl(rng, J, d)
        assert weyl_commutator(tau(J, d, v), X).is_zero()


def test_path_matrix_entry_momentum_indexing(J):
    # classical momentum coordinates are independent transposed-bound variables
    d = (2,)
    entry = path_matrix_entry(J, d, Path((Letter(0, True),)), 1, 2)
    assert entry == PolyElement.coordinate(J, d, 0, True, 1, 2)
