"""Oracles for the reduction-ideal decomposition and the trace character.

``IdealDecomposition.verified`` is the exact ratio solve in
``decompose_ideal_image``, and ``kernel_constraint`` solves the character
once because it is affine in r (unit slope) and independent of lambda.
These tests keep the checks those shortcuts replace: re-expanding each
decomposition and comparing it with the traced generator, and re-solving
the character at every unit r.  The library re-expands by multiplying each
entry's terms by the position and derivative tokens of tau's normal-ordered
pairs (``repspace.tau_pairs``); the general route it replaced, a sum of
``weyl_mul(entry, tau(direction) + constant)``, is the oracle here, with
tau written out arrow by arrow.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhq import (
    GlElement,
    HBarPolynomial,
    Letter,
    ReductionParameters,
    WeylElement,
    canonical_necklace,
    decompose_ideal_image,
    kernel_constraint,
    solve_chi,
    tau,
    trace,
    weyl_mul,
)
from nhq.expr import format_element
from nhq.repspace import _times_token, tau_pairs
from nhq.sampling import a2, a3p, all_dimension_vectors, jordan, small_quivers, two_loop
from nhq.trace import enumerate_generators


def reference_tau(quiver, dim, v):
    """tau(v) arrow by arrow: e^i_{p,q} acts by sum_j x_{(a,j,p)} d_{(a,j,q)}
    over arrows leaving i and by -sum_j x_{(a,q,j)} d_{(a,p,j)} over arrows
    entering i."""
    out = WeylElement(quiver, dim)
    for (i, p, q), c in v.items():
        for ai, arrow in enumerate(quiver.arrows):
            if arrow.source == i:
                for j in range(1, dim[arrow.target] + 1):
                    term = weyl_mul(
                        WeylElement.position(quiver, dim, ai, j, p, c),
                        WeylElement.derivative(quiver, dim, ai, j, q),
                    )
                    out = out + term
            if arrow.target == i:
                for j in range(1, dim[arrow.source] + 1):
                    term = weyl_mul(
                        WeylElement.position(quiver, dim, ai, q, j, -c),
                        WeylElement.derivative(quiver, dim, ai, p, j),
                    )
                    out = out + term
    return out


def reference_re_expand(dec, lam, chi):
    """sum over dec.pairs of weyl_mul(entry, tau(direction) + (lambda - h chi)
    tr(direction)), tr the block trace at the generator's vertex."""
    quiver, dim = dec.quiver, dec.dim
    out = WeylElement(quiver, dim)
    for entry, direction in dec.pairs:
        w = reference_tau(quiver, dim, direction)
        tr_dir = sum(
            (c for (i, p, q), c in direction.items() if i == dec.vertex and p == q),
            Fraction(0),
        )
        const = HBarPolynomial((lam * tr_dir, -chi * tr_dir))
        if const:
            w = w + WeylElement.constant(quiver, dim, const)
        out = out + weyl_mul(entry, w)
    return out


def _seeded_params(rng, nv):
    def draw():
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nv))

    return ReductionParameters(draw(), draw())


def _cases():
    for name, quiver in (("jordan", jordan()), ("a2", a2()), ("two_loop", two_loop())):
        for dim in all_dimension_vectors(quiver, 2):
            yield pytest.param(quiver, dim, 3, id=f"{name}{dim}")
    yield pytest.param(a3p(), (2, 2, 2, 1), 2, id="a3p(2, 2, 2, 1)")


@pytest.mark.parametrize("quiver,dim,max_len", list(_cases()))
def test_verified_is_the_re_expansion_check(quiver, dim, max_len):
    rng = random.Random(str(dim))
    generators = enumerate_generators(quiver, max_len)
    assert generators
    for params in (None, _seeded_params(rng, len(quiver.vertices))):
        for necklace, vertex, mark in generators:
            dec = decompose_ideal_image(quiver, dim, necklace, vertex, mark, params)
            assert dec.verified == (dec.target - dec.re_expand()).is_zero()
            assert dec.verified
            lam = Fraction(0) if params is None else params.lam[vertex]
            seeded = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for chi in (Fraction(0), dec.chi_value, seeded):
                assert dec.re_expand(chi) == reference_re_expand(dec, lam, chi)


@st.composite
def _gl_elements(draw):
    quiver = draw(st.sampled_from(small_quivers()))
    dim = tuple(draw(st.integers(1, 3)) for _ in quiver.vertices)
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(dim) - 1))
        p, q = draw(st.integers(1, dim[i])), draw(st.integers(1, dim[i]))
        terms[i, p, q] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return quiver, dim, GlElement(quiver, dim, terms)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_gl_elements())
def test_tau_pairs_rebuild_tau(case):
    quiver, dim, v = case
    expected = reference_tau(quiver, dim, v)
    assert tau(quiver, dim, v) == expected
    # the token route of the decomposition: 1 * x_pos, then * d_der
    out: dict = {}
    for (i, p, q), c in v.items():
        for sign, pos, der in tau_pairs(quiver, dim, i, p, q):
            moved: dict = {}
            _times_token({((), ()): HBarPolynomial.constant(c * sign)}, (pos, False), moved)
            _times_token(moved, (der, True), out)
    assert WeylElement(quiver, dim, out) == expected


@pytest.mark.parametrize(
    "quiver,dim",
    [(a3p(), (2, 2, 2, 1)), (a2(), (2, 1)), (jordan(), (2,))],
    ids=["a3p", "a2", "jordan"],
)
def test_character_is_affine_in_r_and_free_of_lambda(quiver, dim):
    nv = len(quiver.vertices)
    zero = (Fraction(0),) * nv
    _, base = solve_chi(quiver, dim)
    assert base is not None
    lam = tuple(Fraction(3 - 2 * i) for i in range(nv))
    for k in range(nv):
        unit = tuple(Fraction(int(i == k)) for i in range(nv))
        for params in (ReductionParameters(unit, zero), ReductionParameters(unit, lam)):
            _, shifted = solve_chi(quiver, dim, params)
            assert shifted is not None
            assert tuple(s - b for s, b in zip(shifted.values, base.values)) == unit


def test_a_target_outside_the_character_span_fails(monkeypatch):
    quiver, dim = jordan(), (2,)
    true_trace = trace.trace_quantum
    # a constant (h^0) term cannot be a multiple of h Tr_q(p)
    monkeypatch.setattr(
        trace,
        "trace_quantum",
        lambda x, d: true_trace(x, d) + WeylElement.constant(quiver, tuple(d), 1),
    )
    cycle = canonical_necklace(quiver, (Letter(0, False), Letter(0, True)))
    dec = decompose_ideal_image(quiver, dim, cycle, 0, 1)
    assert dec.chi_value is None
    assert dec.verified is False
    residual = dec.target - dec.re_expand()
    assert not residual.is_zero()
    report = dec.report()
    assert report.status == "failed"
    assert report.residual == format_element(residual)
    assert f"  residual: {report.residual}" in report.to_text()

    chi_report, chi = solve_chi(quiver, dim)
    assert chi is None and chi_report.status == "failed"
    assert kernel_constraint(quiver, dim).status == "failed"
