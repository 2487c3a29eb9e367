import itertools
import random
from fractions import Fraction

import pytest

from nhq import (
    BlockMatrix,
    DimensionError,
    GlElement,
    HBarPolynomial,
    HH0Element,
    Letter,
    Path,
    PathAlgebraElement,
    PolyElement,
    QPAElement,
    ReductionParameters,
    WeylElement,
    WorkLimitError,
    block_matrix,
    canonical_necklace,
    classical_symbol,
    decompose_ideal_image,
    idempotent_class,
    kernel_constraint,
    lift_necklace,
    make_configuration,
    make_dimension_vector,
    make_params,
    moment_block_matrix,
    path_matrix_entry,
    qpa_mul,
    solve_chi,
    straighten,
    tau_kernel,
    trace_classical,
    trace_quantum,
    trace_quantum_config,
    verify_cubic,
    verify_equivariance,
    verify_quantum_moment,
    verify_trace_homomorphism,
    weyl_mul,
)
from nhq.expr import parse_hh0_element, parse_qpa_element
from nhq.quiver import make_quiver
from nhq.sampling import (
    a3p,
    all_dimension_vectors,
    jordan,
    random_configuration,
    random_dimension,
    random_gl,
    random_necklace,
    random_quiver,
    small_quivers,
    two_loop,
)
from nhq.trace import chi_sign_variants, clear_trace_cache, enumerate_generators
from test_contraction import reference_trace_quantum_config

H = HBarPolynomial.h()


# -- classical trace ---------------------------------------------------------


def test_trace_classical_idempotent(A2):
    d = (2, 3)
    x = HH0Element.of(A2, idempotent_class(1))
    assert trace_classical(x, d) == PolyElement.constant(A2, d, 3)


def test_trace_classical_single_letter(J):
    d = (1,)
    x = parse_hh0_element(J, "[x]")
    assert trace_classical(x, d) == PolyElement.coordinate(J, d, 0, False, 1, 1)


def test_trace_classical_two_letter_expansion(J):
    # oracle: direct index expansion
    d = (2,)
    x = parse_hh0_element(J, "[x.x']")
    expected = PolyElement(J, d)
    for i in (1, 2):
        for j in (1, 2):
            expected = expected + PolyElement.coordinate(
                J, d, 0, False, i, j
            ) * PolyElement.coordinate(J, d, 0, True, j, i)
    assert trace_classical(x, d) == expected


@pytest.mark.parametrize("dim", [(0,), (2, 5), ()])
def test_trace_entry_points_reject_bad_dimension_vectors(J, dim):
    path = Path((Letter(0, False), Letter(0, True)))
    x = parse_hh0_element(J, "[x.x']")
    X = parse_qpa_element(J, "(x,1)(x',2)")
    calls = (
        lambda: trace_classical(x, dim),
        lambda: trace_quantum(X, dim),
        lambda: block_matrix(PathAlgebraElement.of_path(J, path), dim, "quantum"),
        lambda: path_matrix_entry(J, dim, path, 1, 1),
    )
    for call in calls:
        with pytest.raises(DimensionError):
            call()


# -- quantum trace -----------------------------------------------------------


def test_trace_quantum_idempotent_factors(J):
    d = (3,)
    assert trace_quantum_config(J, d, (), (0, 0)) == WeylElement.constant(J, d, 9)


def test_trace_quantum_two_letters_d1(J):
    d = (1,)
    X = parse_qpa_element(J, "(x,1)(x',2)")
    expected = weyl_mul(
        WeylElement.position(J, d, 0, 1, 1), WeylElement.derivative(J, d, 0, 1, 1)
    )
    assert trace_quantum(X, d) == expected


def test_trace_quantum_height_order_cross_check(J):
    # Tr_q((x',1)(x,2)) = Tr_q((x,1)(x',2)) + h d^2, raw configurations
    for n in (1, 2):
        d = (n,)
        lhs = trace_quantum_config(J, d, (((Letter(0, True), 1), (Letter(0, False), 2)),), ())
        rhs = trace_quantum_config(
            J, d, (((Letter(0, False), 1), (Letter(0, True), 2)),), ()
        ) + WeylElement.constant(J, d, H * n * n)
        assert lhs == rhs


def test_trace_quantum_invariant_under_single_rewrite():
    # a skein rewrite never changes the quantum trace
    rng = random.Random(41)
    for _ in range(20):
        q = random_quiver(rng, 2, 2)
        d = random_dimension(rng, q)
        cfg = random_configuration(rng, q, max_letters=5)
        direct = trace_quantum_config(q, d, cfg.components, cfg.idempotents)
        normal = trace_quantum(straighten(q, cfg), d)
        assert direct == normal


def _per_configuration_sum(x, d):
    """Tr_q of x configuration by configuration, each traced by enumerating
    every index tuple and multiplying through ``weyl_mul``."""
    total = WeylElement(x.quiver, d)
    for cfg, coeff in x.items():
        traced = reference_trace_quantum_config(x.quiver, d, cfg.components, cfg.idempotents)
        total = total + traced.scale(coeff)
    return total


@pytest.mark.parametrize(
    "coeff", [1, 2, H, 1 + H, Fraction(-2, 3) + H * H], ids=["1", "2", "h", "1+h", "-2/3+h^2"]
)
def test_trace_quantum_of_one_configuration(coeff):
    rng = random.Random(f"one configuration {coeff}")
    for q in (jordan(), two_loop(), a3p()):
        for _ in range(4):
            d = random_dimension(rng, q, max_dim=3)
            cfg = random_configuration(rng, q, max_letters=5, max_idempotents=2)
            x = QPAElement(q, {cfg: coeff})
            cached = trace_quantum_config(q, d, cfg.components, cfg.idempotents)
            unscaled = dict(cached.terms)
            traced = trace_quantum(x, d)
            assert traced == _per_configuration_sum(x, d)
            # every call returns a fresh element built from the cached packed
            # trace, so a read view or a scaled call leaves the entry as it was
            again = trace_quantum_config(q, d, cfg.components, cfg.idempotents)
            assert traced is not cached and again is not cached
            assert again == cached and again.terms == unscaled


def test_trace_quantum_of_idempotent_factors(J, A2):
    for q, d in ((J, (3,)), (A2, (2, 3))):
        for idempotents, coeff in (((0,), 1), ((0, len(d) - 1), 1 + H), ((), 2 * H)):
            x = QPAElement(q, {make_configuration(q, (), idempotents): coeff})
            scalar = 1
            for v in idempotents:
                scalar *= d[v]
            assert trace_quantum(x, d) == WeylElement.constant(q, d, coeff * scalar)
            assert trace_quantum(x, d) == _per_configuration_sum(x, d)


def test_trace_quantum_of_sums_is_the_per_configuration_sum():
    rng = random.Random(2014)
    coeffs = (1, 2, -1, H, 1 + H, Fraction(1, 2) - H)
    for q in (jordan(), two_loop(), a3p()):
        for _ in range(4):
            d = random_dimension(rng, q, max_dim=2)
            x = QPAElement(q)
            while len(x.terms) < 3:
                cfg = random_configuration(rng, q, max_letters=5, max_idempotents=2)
                x = x + QPAElement(q, {cfg: rng.choice(coeffs)})
            cached = lambda cfg: trace_quantum_config(q, d, cfg.components, cfg.idempotents)
            before = {cfg: dict(cached(cfg).terms) for cfg in x.terms}
            assert trace_quantum(x, d) == _per_configuration_sum(x, d)
            assert all(cached(cfg).terms == terms for cfg, terms in before.items())


def test_trace_quantum_of_a_sum_is_the_sum_of_its_configuration_traces():
    # the sum is traced in one layout for all its configurations, each one
    # alone in a layout of its own letters
    rng = random.Random(2029)
    coeffs = (1, -1, 3, Fraction(1, 2), H, 1 + H, Fraction(-2, 3) + H * H)
    for q in small_quivers():
        for _ in range(4):
            d = random_dimension(rng, q, max_dim=2)
            x = QPAElement(q)
            while len(x.terms) < 2:
                cfgs = [random_configuration(rng, q, max_letters=5) for _ in range(rng.randint(2, 4))]
                x = QPAElement(q, {cfg: rng.choice(coeffs) for cfg in cfgs})
            expected = WeylElement(q, d)
            for cfg, coeff in x.items():
                expected = expected + trace_quantum_config(q, d, cfg.components, cfg.idempotents).scale(coeff)
            assert trace_quantum(x, d) == expected


def test_trace_quantum_budget_covers_the_whole_sum(J, monkeypatch):
    # each configuration is under the limit, their sum is not
    from nhq import work

    d = (2,)
    a, a_star = Letter(0, False), Letter(0, True)
    words = ((a, a_star, a), (a_star, a), (a,))
    cfgs = [make_configuration(J, [tuple((l, t + 1) for t, l in enumerate(w))]) for w in words]
    x = QPAElement(J, {cfg: 1 for cfg in cfgs})
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", 2**3 + 2**2 + 2)
    assert trace_quantum(x, d) == _per_configuration_sum(x, d)
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", 2**3 + 2**2 + 1)
    with pytest.raises(DimensionError, match="has 14 index assignments, above the limit 13"):
        trace_quantum(x, d)
    # a lone configuration is held to the same limit by its contraction
    clear_trace_cache()
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", 2**2)
    with pytest.raises(DimensionError, match="has 8 index assignments"):
        trace_quantum(QPAElement(J, {cfgs[0]: 1}), d)


def test_decomposition_budget_covers_every_traced_configuration(J, monkeypatch):
    # the generator's traced configurations (G, P, T and E) together are
    # over the limit, each of them alone is not
    from nhq import repspace, schedler, work

    d = (2,)
    x, xs = Letter(0, False), Letter(0, True)
    p = canonical_necklace(J, (x, xs, x))
    params = ReductionParameters((Fraction(1),), (Fraction(2),))
    parts = schedler.ideal_normal_forms(J, schedler.marked_word(J, p, 0, 0), 0)
    assert len(parts) == 4 and all(parts)
    traced = set().union(*parts)
    total = sum(2 ** sum(map(len, codes)) for codes, _, _ in traced)
    assert total == 92 and max(2 ** sum(map(len, codes)) for codes, _, _ in traced) == 32
    expected = decompose_ideal_image(J, d, p, 0, 0, params)
    assert expected.verified
    clear_trace_cache()
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", total)
    dec = decompose_ideal_image(J, d, p, 0, 0, params)
    assert dec.chi_value == expected.chi_value and dec.target == expected.target
    clear_trace_cache()
    contractions = []
    contract = repspace._contract
    monkeypatch.setattr(repspace, "_contract", lambda *a, **k: contractions.append(a) or contract(*a, **k))
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", total - 1)
    with pytest.raises(WorkLimitError, match=f"has {total} index assignments, above the limit {total - 1}"):
        decompose_ideal_image(J, d, p, 0, 0, params)
    assert contractions == []


def test_decomposition_keeps_the_rewrite_budget(J, monkeypatch):
    from nhq import work

    x, xs = Letter(0, False), Letter(0, True)
    p = canonical_necklace(J, (x, xs, x))
    params = ReductionParameters((Fraction(1),), (Fraction(2),))
    monkeypatch.setattr(work, "MAX_REWRITES", 10)
    with pytest.raises(WorkLimitError, match="straightening needs more rewrites than the limit 10"):
        decompose_ideal_image(J, (2,), p, 0, 0, params)
    monkeypatch.undo()
    assert decompose_ideal_image(J, (2,), p, 0, 0, params).verified


def test_trace_hom_unit(J):
    d = (2,)
    one = parse_qpa_element(J, "1")
    X = parse_qpa_element(J, "(x,1)(x',2)")
    assert verify_trace_homomorphism(one, X, d).ok
    assert verify_trace_homomorphism(X, one, d).ok


def test_trace_hom_jordan_pair(J):
    d = (1,)
    X = parse_qpa_element(J, "(x',1)")
    Y = parse_qpa_element(J, "(x,1)")
    report = verify_trace_homomorphism(X, Y, d)
    assert report.ok
    both = trace_quantum(qpa_mul(X, Y), d)
    expected = weyl_mul(
        WeylElement.position(J, d, 0, 1, 1), WeylElement.derivative(J, d, 0, 1, 1)
    ) + WeylElement.constant(J, d, H)
    assert both == expected


def test_trace_hom_a3p_paper_elements(A3P):
    d = (1, 1, 1, 1)
    X = parse_qpa_element(A3P, "(a0',1)(a1',2)(a2',3)")
    Y = parse_qpa_element(A3P, "(a2',1)(a2,2)")
    assert verify_trace_homomorphism(X, Y, d).ok
    assert verify_trace_homomorphism(Y, X, d).ok


def test_trace_hom_randomized():
    rng = random.Random(42)
    for _ in range(15):
        q = random_quiver(rng, 2, 2)
        d = random_dimension(rng, q)
        X = lift_necklace(q, random_necklace(rng, q, 4))
        Y = lift_necklace(q, random_necklace(rng, q, 4))
        assert verify_trace_homomorphism(X, Y, d).ok


def test_classical_compatibility_randomized():
    # classical_symbol(Tr_q(lift x)) = Tr(x)
    rng = random.Random(43)
    for _ in range(20):
        q = random_quiver(rng, 2, 2)
        d = random_dimension(rng, q)
        neck = random_necklace(rng, q, 4)
        x = HH0Element.of(q, neck)
        lhs = classical_symbol(trace_quantum(lift_necklace(q, neck), d))
        assert lhs == trace_classical(x, d)


# -- the commuting squares ---------------------------------------------------


def test_cubic_self_is_zero(J):
    x = parse_hh0_element(J, "[x.x']")
    assert verify_cubic(x, x, (2,)).ok


def test_cubic_jordan(J):
    x = parse_hh0_element(J, "[x.x']")
    y = parse_hh0_element(J, "[x]")
    assert verify_cubic(x, y, (2,)).ok


def test_cubic_a3p_worked_example(A3P):
    d = make_dimension_vector(A3P, {"0": 2, "1": 2, "2": 2, "inf": 1})
    x = parse_hh0_element(A3P, "[a0'.a1'.a2']")
    y = parse_hh0_element(A3P, "[a2'.a2]")
    assert verify_cubic(x, y, d).ok
    # the classical side is the contracted triple product with a minus sign
    from nhq.repspace import poisson

    lhs = poisson(trace_classical(x, d), trace_classical(y, d))
    expected = PolyElement(A3P, d)
    for l1, l2, l3 in itertools.product((1, 2), repeat=3):
        mono = {}
        for (ai, r, c) in ((0, l1, l2), (1, l2, l3), (2, l3, l1)):
            var = (ai, True, r, c)
            mono[var] = mono.get(var, 0) + 1
        expected = expected + PolyElement(A3P, d, {tuple(sorted(mono.items())): -1})
    assert lhs == expected


def test_quantum_moment_reports(J, A2):
    q0 = make_quiver(["u"], [])
    assert verify_quantum_moment(q0, (2,)).ok
    rep = verify_quantum_moment(J, (1,))
    assert rep.ok
    assert verify_quantum_moment(A2, (2, 3)).ok


def test_the_quantum_moment_check_repacks_no_term(monkeypatch):
    # each right-hand side -tau(e) + h chi is packed in tau's codec, the
    # blocks' layout, so neither the constant nor a compared side is re-packed
    from nhq import repspace, tau

    repacks = []
    repack = repspace._Codec.repack
    monkeypatch.setattr(repspace._Codec, "repack", lambda self, *a: repacks.append(self) or repack(self, *a))
    for q in small_quivers():
        dim = (2,) * len(q.vertices)
        for r in (None, tuple(Fraction(k - 1, 2) for k in range(len(q.vertices)))):
            assert verify_quantum_moment(q, dim, r).ok
    assert repacks == []
    monkeypatch.undo()
    q, dim = a3p(), (2, 2, 2, 1)
    for i, p, k in ((0, 1, 1), (1, 2, 1), (3, 1, 1)):
        e = GlElement.elementary(q, dim, i, p, k, Fraction(-1, 3))
        for c in (0, 5, H * Fraction(7, 2), HBarPolynomial((1, 0, -2))):
            assert tau(q, dim, e, c) == tau(q, dim, e) + WeylElement.constant(q, dim, c)


def test_a_generator_image_finds_its_marked_word_once(L2, monkeypatch):
    from nhq import schedler, trace

    calls = []
    for module in (trace, schedler):
        monkeypatch.setattr(module, "marked_word", lambda *a, _f=schedler.marked_word: calls.append(a) or _f(*a))
    for generator in enumerate_generators(L2, 3)[:12]:
        calls.clear()
        trace.generator_image(L2, (2,), *generator)
        assert len(calls) == 1


def test_equivariance_randomized():
    rng = random.Random(44)
    for _ in range(10):
        q = random_quiver(rng, 2, 2)
        d = random_dimension(rng, q)
        v = random_gl(rng, q, d)
        X = lift_necklace(q, random_necklace(rng, q, 4))
        assert verify_equivariance(v, X, d).ok


# -- ideal decomposition and the character -----------------------------------


_XXS = (Letter(0, False), Letter(0, True))


@pytest.mark.parametrize(
    "call",
    [
        lambda q, d: decompose_ideal_image(q, d, canonical_necklace(q, _XXS), 0, 1).target,
        lambda q, d: solve_chi(q, d),
        lambda q, d: kernel_constraint(q, d),
        lambda q, d: verify_quantum_moment(q, d),
        lambda q, d: tau_kernel(q, d),
        lambda q, d: moment_block_matrix(q, d),
    ],
    ids=[
        "decompose_ideal_image", "solve_chi", "kernel_constraint",
        "verify_quantum_moment", "tau_kernel", "moment_block_matrix",
    ],
)
def test_dimension_vectors_are_validated_at_every_entry(J, call, monkeypatch):
    from nhq import repspace

    assert call(J, {"v": 2}) == call(J, (2,))
    straightened = []
    normal_forms = repspace.ideal_normal_forms
    monkeypatch.setattr(repspace, "ideal_normal_forms", lambda *a: straightened.append(a) or normal_forms(*a))
    for bad in ((2, 2), (0,), (-1,)):
        with pytest.raises(DimensionError):
            call(J, bad)
    # refused before any generator is straightened
    assert straightened == []


_X = Letter(0, False)


@pytest.mark.parametrize(
    "components, idempotents",
    [
        ((((_X.star(), 1), (_X, 2)),), ()),
        ((((_X, 2), (_X.star(), 3)), ((_X.star(), 1),)), (0,)),
        ((), (0, 0)),
    ],
    ids=["x'x", "two-components", "idempotents"],
)
def test_trace_quantum_config_validates_its_dimension_vector(J, components, idempotents):
    assert trace_quantum_config(J, {"v": 2}, components, idempotents) == trace_quantum_config(
        J, (2,), components, idempotents
    )
    for bad in ((0,), (2, 2), (-1,), {"w": 2}):
        with pytest.raises(DimensionError):
            trace_quantum_config(J, bad, components, idempotents)


def test_decompose_idempotent_generator(J, A2):
    for q, d in ((J, (2,)), (A2, (2, 1)), (A2, (1, 2))):
        for i in range(len(q.vertices)):
            dec = decompose_ideal_image(q, d, idempotent_class(i), i, 0)
            assert dec.verified
            # v = 0 chains carry identity coefficients and diagonal directions
            assert all(
                coeff == WeylElement.constant(q, d, 1) for coeff, _ in dec.pairs
            )
            assert len(dec.pairs) == d[i]


def test_decompose_jordan_cycle(J):
    d = (2,)
    neck = canonical_necklace(J, (Letter(0, False), Letter(0, True)))
    dec = decompose_ideal_image(J, d, neck, 0, 1)
    assert dec.verified
    assert dec.chi_value is not None
    # re-expansion is exactly the traced generator
    assert (dec.target - dec.re_expand()).is_zero()


def test_decompose_deformed_orthogonal_lambda(A2):
    d = (2, 1)
    lam = {"1": Fraction(1), "2": Fraction(-2)}  # 1*2 + (-2)*1 = 0
    params = make_params(A2, r={"1": 3, "2": -1}, lam=lam)
    for necklace, vertex, mark in enumerate_generators(A2, 2):
        dec = decompose_ideal_image(A2, d, necklace, vertex, mark, params)
        assert dec.verified


def test_decompose_all_short_generators_jordan(J):
    rng = random.Random(45)
    for d in ((1,), (2,)):
        r = (Fraction(rng.randint(-3, 3)),)
        params = ReductionParameters(r, (Fraction(0),))
        for necklace, vertex, mark in enumerate_generators(J, 3):
            dec = decompose_ideal_image(J, d, necklace, vertex, mark, params)
            assert dec.verified


def test_solve_chi_jordan_matches_closed_form(J):
    for n in (1, 2, 3):
        report, chi = solve_chi(J, (n,))
        assert report.status == "solved"
        assert chi.values == (Fraction(-n),)
        assert any("matches closed form 'main'" in note for note in report.notes)


def test_solve_chi_a2(A2):
    report, chi = solve_chi(A2, (1, 1))
    assert chi.values == (Fraction(-1), Fraction(0))


def test_solve_chi_r_linearity_adjudicates_sign(A2):
    d = (1, 2)
    zero = (Fraction(0), Fraction(0))
    _, base = solve_chi(A2, d)
    for k in (0, 1):
        unit = tuple(Fraction(1 if i == k else 0) for i in (0, 1))
        _, shifted = solve_chi(A2, d, ReductionParameters(unit, zero))
        delta = tuple(s - b for s, b in zip(shifted.values, base.values))
        # +r_k enters with coefficient +1: the r-sign of the main closed form
        assert delta == unit


def test_kernel_constraint_no_arrows():
    q = make_quiver(["u", "w"], [])
    rep = kernel_constraint(q, (1, 1))
    assert rep.status == "solved"
    # tau = 0, so all of gl is kernel; each diagonal direction constrains one r
    assert rep.constraints == ["0 + r_u = 0", "0 + r_w = 0"]


def test_kernel_constraint_a2(A2):
    rep = kernel_constraint(A2, (1, 1))
    assert rep.constraints == ["-1 + r_1 + r_2 = 0"]


def test_kernel_constraint_a3p_reports_reference(A3P):
    d = make_dimension_vector(A3P, {"0": 2, "1": 2, "2": 2, "inf": 1})
    rep = kernel_constraint(A3P, d)
    assert rep.status == "solved"
    assert rep.constraints == ["-14 + 2*r_0 + 2*r_1 + 2*r_2 + r_inf = 0"]
    assert any("14 + 4*r_0 + 2*r_1 + 2*r_2 = 0" in note for note in rep.notes)
    assert any("not independently derivable" in note for note in rep.notes)


def test_reduction_holds_on_drawn_quivers():
    # seeded quivers with one to four arrows, parallel arrows and loops
    # among them, each at its first four dimension vectors up to 2 and a
    # drawn r: every generator up to length 3 verifies, the solved
    # character is the closed form 'main', and the kernel constraint solves
    rng = random.Random(5)
    arrows, cases = set(), 0
    for _ in range(12):
        quiver = random_quiver(rng, 3, 4)
        nv = len(quiver.vertices)
        arrows.add(len(quiver.arrows))
        for dim in all_dimension_vectors(quiver, 2)[:4]:
            r = tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(nv))
            report, chi = solve_chi(quiver, dim, ReductionParameters(r, (Fraction(0),) * nv), max_len=3)
            case = (quiver.arrows, dim, r)
            assert report.status == "solved", case
            assert chi.values == chi_sign_variants(quiver, dim, r)["main"].values, case
            assert kernel_constraint(quiver, dim).status == "solved", case
            cases += 1
    assert (arrows, cases) == ({1, 2, 3, 4}, 40)


def test_reduction_parameters_are_exact_rationals(J):
    # a float is refused where the parameters are made, not deep in a
    # check; exact entries are kept as given
    p = canonical_necklace(J, (Letter(0, False), Letter(0, True)))
    for r, lam in (((0.5,), (0,)), ((0,), (Fraction(1), 2.0))):
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            ReductionParameters(r, lam)
    params = ReductionParameters((1,), (Fraction(1, 2),))
    assert (params.r, params.lam) == ((1,), (Fraction(1, 2),)) and type(params.r[0]) is int
    assert decompose_ideal_image(J, (2,), p, 0, 0, params).verified


def test_report_serialization_round_trip(J):
    import json

    rep = verify_quantum_moment(J, (1,))
    doc = json.loads(rep.to_json())
    assert doc["name"] == "qmoment"
    assert doc["status"] == "verified"
    text = rep.to_text()
    assert text.startswith("qmoment: verified")


def test_report_verified_requires_zero_residual():
    from nhq.trace import VerificationReport

    with pytest.raises(ValueError):
        VerificationReport("bad", "verified", residual="x")


# -- failure paths -------------------------------------------------------------
#
# Each check compares its two sides and forms their difference only for a
# failed report.  A monkeypatched side makes each check fail, and the report
# must print exactly the residual text below.


def test_failed_trace_homomorphism_carries_its_residual(J, monkeypatch):
    from nhq import trace

    d = (2,)
    monkeypatch.setattr(trace, "weyl_mul", lambda a, b: weyl_mul(a, b).scale(1 + H))
    X, Y = parse_qpa_element(J, "(x',1)"), parse_qpa_element(J, "2*(x,1)")
    report = verify_trace_homomorphism(X, Y, d)
    assert report.status == "failed"
    assert report.residual == RESIDUALS["trace-hom"]


def test_failed_cubic_carries_its_residual(J, monkeypatch):
    from nhq import trace
    from nhq.repspace import poisson

    d = (2,)
    bump = PolyElement.coordinate(J, d, 0, True, 2, 1, Fraction(1, 2))
    monkeypatch.setattr(trace, "poisson", lambda f, g: poisson(f, g).scale(2) + bump)
    x, y = parse_hh0_element(J, "[x.x']"), parse_hh0_element(J, "3*[x]")
    report = verify_cubic(x, y, d)
    assert report.status == "failed"
    assert report.residual == RESIDUALS["cubic"]


def test_failed_quantum_moment_carries_its_first_residual(A2, monkeypatch):
    from nhq import trace

    d = (2, 2)

    def broken(q, dim, r=None):
        # the check reads tr(M e^0_{1,2}) as the (2, 1) entry of block 0
        blocks = moment_block_matrix(q, dim, r)
        rows = [list(row) for row in blocks[0].entries]
        rows[1][0] = rows[1][0] + WeylElement.derivative(q, dim, 0, 2, 1, 1 - H)
        blocks[0] = BlockMatrix(0, 0, tuple(map(tuple, rows)))
        return blocks

    monkeypatch.setattr(trace, "moment_block_matrix", broken)
    report = verify_quantum_moment(A2, d, (Fraction(1), Fraction(-2)))
    assert report.status == "failed"
    assert report.residual == RESIDUALS["qmoment"]
    assert report.notes == ("first failing basis element e^0_{1,2}",)


def test_failed_decomposition_carries_its_residual(J, wrong_spliced_int):
    d = (2,)
    # x_{2,2}^4 at h^0 in the traced spliced part: no chi absorbs it, and
    # the comparison with the re-expansion fails
    cycle = canonical_necklace(J, (Letter(0, False), Letter(0, True)))
    dec = decompose_ideal_image(J, d, cycle, 0, 1)
    assert dec.chi_value is None and not dec.verified
    report = dec.report()
    assert report.status == "failed"
    assert report.residual == RESIDUALS["ideal"]


def test_cubic_commutator_not_divisible_by_h_is_the_residual(J, monkeypatch):
    from nhq import trace
    from nhq.repspace import weyl_commutator

    # an h-free term in the commutator: the whole commutator is the residual
    monkeypatch.setattr(trace, "weyl_commutator", lambda a, b: weyl_commutator(a, b) + a)
    x, y = parse_hh0_element(J, "[x.x']"), parse_hh0_element(J, "3*[x]")
    report = verify_cubic(x, y, (2,))
    assert report.status == "failed"
    assert report.residual == RESIDUALS["cubic-not-divisible"]
    assert report.notes == ("commutator is not divisible by h",)


def test_failed_equivariance_carries_the_commutator(J, monkeypatch):
    from nhq import trace

    d = (2,)
    true_trace = trace.trace_quantum
    bump = WeylElement.position(J, d, 0, 1, 2)
    monkeypatch.setattr(trace, "trace_quantum", lambda x, dd: true_trace(x, dd) + bump)
    v = GlElement.elementary(J, d, 0, 1, 1)
    report = verify_equivariance(v, parse_qpa_element(J, "(x',1)(x,2)"), d)
    assert report.status == "failed"
    assert report.residual == "-h*[x]_{1,2}" and report.notes == ()


RESIDUALS = {
    "trace-hom": (
        "-4*h^2 - 2*h*[x]_{1,1}*d(x)_{1,1} - 2*h*[x]_{1,1}*d(x)_{2,2} "
        "- 2*h*[x]_{2,2}*d(x)_{1,1} - 2*h*[x]_{2,2}*d(x)_{2,2}"
    ),
    "cubic": "3*(x)_{1,1} + 3*(x)_{2,2} - 1/2*(x')_{2,1}",
    "cubic-not-divisible": (
        "3*h*[x]_{1,1} + 3*h*[x]_{2,2} + [x]_{1,1}*d(x)_{1,1} + [x]_{1,2}*d(x)_{1,2} "
        "+ [x]_{2,1}*d(x)_{2,1} + [x]_{2,2}*d(x)_{2,2}"
    ),
    "qmoment": "(1 - h)*d(a)_{2,1}",
    "ideal": (
        "-2*h*[x]_{1,1}*d(x)_{1,1} - 2*h*[x]_{1,2}*d(x)_{1,2} - 2*h*[x]_{2,1}*d(x)_{2,1} "
        "- 2*h*[x]_{2,2}*d(x)_{2,2} + [x]_{2,2}^4"
    ),
}
