"""Oracles for the reduction-ideal decomposition and the trace character.

``IdealDecomposition.verified`` is the exact ratio solve in
``decompose_ideal_image``, and ``kernel_constraint`` solves the character
once because it is affine in r (unit slope) and independent of lambda.
These tests keep the checks those shortcuts replace: re-expanding each
decomposition and comparing it with the traced generator, and re-solving
the character at every unit r.
"""

import random
from fractions import Fraction

import pytest

from nhq import (
    Letter,
    ReductionParameters,
    WeylElement,
    canonical_necklace,
    decompose_ideal_image,
    kernel_constraint,
    solve_chi,
    trace,
)
from nhq.expr import format_element
from nhq.sampling import a2, a3p, all_dimension_vectors, jordan, two_loop
from nhq.trace import enumerate_generators


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
