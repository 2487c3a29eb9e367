import itertools
import random
from fractions import Fraction

import pytest

from nhq import (
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
    path_matrix_entry,
    qpa_mul,
    solve_chi,
    straighten,
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
    jordan,
    random_configuration,
    random_dimension,
    random_gl,
    random_necklace,
    random_quiver,
    two_loop,
)
from nhq.trace import clear_trace_cache, enumerate_generators
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


@pytest.mark.parametrize("coeff", [1, 2, H, 1 + H], ids=["1", "2", "h", "1+h"])
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
            # coefficient 1 passes the cached trace through; a scaled call
            # leaves the cache entry as it was
            assert (traced is cached) == (coeff == 1)
            assert trace_quantum_config(q, d, cfg.components, cfg.idempotents) is cached
            assert cached.terms == unscaled


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


def test_trace_quantum_budget_covers_the_whole_sum(J, monkeypatch):
    # each configuration is under the limit, their sum is not
    from nhq import repspace

    d = (2,)
    a, a_star = Letter(0, False), Letter(0, True)
    words = ((a, a_star, a), (a_star, a), (a,))
    cfgs = [make_configuration(J, [tuple((l, t + 1) for t, l in enumerate(w))]) for w in words]
    x = QPAElement(J, {cfg: 1 for cfg in cfgs})
    monkeypatch.setattr(repspace, "MAX_INDEX_ASSIGNMENTS", 2**3 + 2**2 + 2)
    assert trace_quantum(x, d) == _per_configuration_sum(x, d)
    monkeypatch.setattr(repspace, "MAX_INDEX_ASSIGNMENTS", 2**3 + 2**2 + 1)
    with pytest.raises(DimensionError, match="has 14 index assignments, above the limit 13"):
        trace_quantum(x, d)
    # a lone configuration is held to the same limit by its contraction
    clear_trace_cache()
    monkeypatch.setattr(repspace, "MAX_INDEX_ASSIGNMENTS", 2**2)
    with pytest.raises(DimensionError, match="has 8 index assignments"):
        trace_quantum(QPAElement(J, {cfgs[0]: 1}), d)


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


def test_equivariance_randomized():
    rng = random.Random(44)
    for _ in range(10):
        q = random_quiver(rng, 2, 2)
        d = random_dimension(rng, q)
        v = random_gl(rng, q, d)
        X = lift_necklace(q, random_necklace(rng, q, 4))
        assert verify_equivariance(v, X, d).ok


# -- ideal decomposition and the character -----------------------------------


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
    from nhq.repspace import quantum_moment

    d = (2, 2)

    def broken(q, dim, v, r=None):
        out = quantum_moment(q, dim, v, r)
        if (0, 1, 2) in v.terms:
            out = out + WeylElement.derivative(q, dim, 0, 2, 1, 1 - H)
        return out

    monkeypatch.setattr(trace, "quantum_moment", broken)
    report = verify_quantum_moment(A2, d, (Fraction(1), Fraction(-2)))
    assert report.status == "failed"
    assert report.residual == RESIDUALS["qmoment"]
    assert report.notes == ("first failing basis element e^0_{1,2}",)


def test_failed_decomposition_carries_its_residual(J, monkeypatch):
    from nhq import trace

    d = (2,)
    true_trace = trace.trace_quantum
    # an h-degree-one term away from the least monomial of Tr_q(p): chi is
    # read as before, and the comparison with the re-expansion fails
    bump = WeylElement.position(J, d, 0, 2, 2, 2 * H)
    monkeypatch.setattr(trace, "trace_quantum", lambda x, dd: true_trace(x, dd) + bump)
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
        "2*h*[x]_{2,2} - 2*h*[x]_{1,1}*d(x)_{1,1} - 2*h*[x]_{1,2}*d(x)_{1,2} "
        "- 2*h*[x]_{2,1}*d(x)_{2,1} - 2*h*[x]_{2,2}*d(x)_{2,2}"
    ),
}
