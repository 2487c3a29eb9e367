"""No float ever enters the exact arithmetic.

``HBarPolynomial`` stores integral coefficients as ``int`` and the rest as
``Fraction``; ``int / int`` would be a float, so the accessors hand out
``Fraction`` values.  A spy checks every polynomial built and every element
a public constructor builds while the verify suites, the gl kernel and the
reduction solvers run and while sampled products of every element type are
formed; the ideal suite's decompositions are made to unpack all their views
for it.  It also checks the packed form of every operator or polynomial
made packed (``repspace._PackedOperator._from_packed`` and the public
constructor) and of every keyed element made packed
(``linear._PackedSums._from_sums``, the one constructor of all six keyed
classes): both hold nonzero ``int`` numerators over a positive ``int``
denominator, in canonical form (no factor common to the denominator and
every numerator).  It checks the
coefficients of every reduction-ideal image (``trace.ideal_image``: its
four traced parts and the open-word entries of its ``pairs``) too: those
paths build no polynomial in h at all.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from nhq import (
    GlElement,
    HH0Element,
    PathAlgebraElement,
    QPAElement,
    SymElement,
    TensorElement,
    double_bracket,
    gl_commutator,
    necklace_bracket,
    path_mul,
    repspace,
    trace,
)
from nhq.linear import _PackedSums
from nhq.repspace import make_dimension_vector, tau_kernel, weyl_mul
from nhq.rings import HBarPolynomial
from nhq.sampling import (
    a3p,
    jordan,
    random_configuration,
    random_gl,
    random_hh0,
    random_path_element,
    random_sym_element,
    small_quivers,
)
from nhq.schedler import lift, qpa_mul, sym_mul
from nhq import suites
from nhq.suites import SUITES
from nhq.trace import kernel_constraint, solve_chi, trace_quantum, trace_quantum_config


def _check_scalar(c) -> None:
    assert type(c) is int or type(c) is Fraction, f"inexact coefficient {c!r}"


def _check_value(value) -> None:
    if isinstance(value, HBarPolynomial):
        for c in value.coeffs:
            _check_scalar(c)
        if value.coeffs:
            assert value.coeffs[-1] != 0
        assert type(value.constant_term()) is Fraction
    else:
        _check_scalar(value)


@pytest.fixture
def spy(monkeypatch):
    """Check every polynomial and element built; counts what it checked."""
    seen = {"polynomials": 0, "elements": 0, "packed": 0, "keyed": set()}
    with_coeffs = HBarPolynomial._with_coeffs
    poly_init = HBarPolynomial.__init__
    keyed_init = _PackedSums.__init__
    operator_init = repspace._PackedOperator.__init__
    from_packed = repspace._PackedOperator._from_packed.__func__
    from_sums = _PackedSums._from_sums.__func__
    image_of = trace.ideal_image

    def check_poly(p):
        seen["polynomials"] += 1
        _check_value(p)
        return p

    def check_element(x):
        seen["elements"] += 1
        for value in x.terms.values():
            _check_value(value)
        return x

    def check_packed(*parts):
        seen["packed"] += 1
        for part in parts:
            for c in part.values():
                _check_scalar(c)

    def check_canonical(den, *parts):
        """Nonzero ``int`` numerators over a positive ``int`` ``den``, with
        no factor common to all of them."""
        check_packed(*parts)
        assert type(den) is int and den > 0
        assert all(type(m) is int and m for part in parts for m in part.values())
        assert gcd(den, *[m for part in parts for m in part.values()]) == 1

    def spy_from_packed(cls, quiver, dim, codec, packed, den, top):
        check_canonical(den, packed)
        return from_packed(cls, quiver, dim, codec, packed, den, top)

    def spy_from_sums(cls, context, sums, den):
        check_canonical(den, *sums)
        assert not sums or sums[-1], "a trailing empty power of h"
        seen["keyed"].add(cls)
        return from_sums(cls, context, sums, den)

    def spy_image(*args):
        image = image_of(*args)
        entries = [entry._packed for entry, _ in image.pairs]
        check_packed(image.spliced, image.cycle, image.diagonal, image.expanded, *entries)
        return image

    def spy_with_coeffs(buf):
        return check_poly(with_coeffs(buf))

    def spy_poly_init(self, coeffs=()):
        poly_init(self, coeffs)
        check_poly(self)

    def spy_keyed_init(self, quiver, terms=None):
        keyed_init(self, quiver, terms)
        check_element(self)

    def spy_operator_init(self, quiver, dim, terms=None):
        operator_init(self, quiver, dim, terms)
        check_canonical(self._den, self._packed)
        check_element(self)

    monkeypatch.setattr(HBarPolynomial, "_with_coeffs", staticmethod(spy_with_coeffs))
    monkeypatch.setattr(HBarPolynomial, "__init__", spy_poly_init)
    monkeypatch.setattr(_PackedSums, "__init__", spy_keyed_init)
    monkeypatch.setattr(repspace._PackedOperator, "__init__", spy_operator_init)
    monkeypatch.setattr(repspace._PackedOperator, "_from_packed", classmethod(spy_from_packed))
    monkeypatch.setattr(_PackedSums, "_from_sums", classmethod(spy_from_sums))
    monkeypatch.setattr(trace, "ideal_image", spy_image)
    return seen


def test_accessors_return_fractions():
    p = HBarPolynomial((2, Fraction(3, 2), Fraction(4, 2)))
    assert p.coeffs == (2, Fraction(3, 2), 2)
    assert [type(c) for c in p.coeffs] == [int, Fraction, int]
    for k in range(4):
        assert type(p.coefficient(k)) is Fraction
    assert type(HBarPolynomial.zero().constant_term()) is Fraction
    assert type((p * 3).shift(1).coefficient(1)) is Fraction
    assert type(p.shift(1).div_h().constant_term()) is Fraction


def _reading_every_view(decompose):
    """``decompose`` (a generator at a parameter set) that reads every
    element view of its result, so the spy sees them: a passing
    decomposition unpacks nothing otherwise."""

    def read(*args):
        dec = decompose(*args)
        dec.target, dec.pairs, dec.trace_of_p, dec.re_expand()
        return dec

    return read


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_suites_stay_exact(spy, suite, monkeypatch):
    monkeypatch.setattr(suites, "decompose_ideal_image", _reading_every_view(suites.decompose_ideal_image))
    for quiver in small_quivers():
        reports = SUITES[suite](
            {"seed": 0, "cases": 2, "quiver": quiver, "dim": None, "params": None}
        )
        assert all(report.ok for report in reports)
    # trace-hom lifts its necklaces straight to packed forms (``lift_necklace``)
    # and traces them packed, so it builds no element through a public constructor
    assert spy["packed"] and (spy["elements"] or suite == "trace-hom")


@pytest.mark.parametrize(
    "quiver, dim",
    [(a3p(), {"0": 2, "1": 2, "2": 2, "inf": 1}), (jordan(), {"v": 2})],
    ids=["a3p-2221", "jordan-2"],
)
def test_reduction_solvers_stay_exact(spy, quiver, dim):
    dim = make_dimension_vector(quiver, dim)
    kernel = tau_kernel(quiver, dim)
    assert kernel
    for vec in kernel:
        for value in vec.terms.values():
            assert type(value) is Fraction
    report, character = solve_chi(quiver, dim)
    assert report.ok
    for value in character.values:
        assert type(value) is Fraction
    assert kernel_constraint(quiver, dim).ok
    assert spy["packed"] and spy["elements"]


def test_sampled_products_stay_exact(spy):
    rng = random.Random(3)
    for quiver in small_quivers():
        dim = tuple(2 if i == 0 else 1 for i in range(len(quiver.vertices)))
        for _ in range(3):
            x = lift(random_sym_element(rng, quiver, max_len=3))
            y = lift(random_sym_element(rng, quiver, max_len=3))
            for value in qpa_mul(x, y).terms.values():
                _check_value(value)
            cfg = random_configuration(rng, quiver, max_letters=4)
            tx = trace_quantum_config(quiver, dim, cfg.components, cfg.idempotents)
            ty = trace_quantum(y, dim)
            for value in weyl_mul(tx, ty).terms.values():
                _check_value(value)
            p, q = (random_path_element(rng, quiver, max_len=3) for _ in range(2))
            for product in (
                necklace_bracket(random_hh0(rng, quiver, max_len=3), random_hh0(rng, quiver, max_len=3)),
                double_bracket(p, q).mult(),
                path_mul(p, q),
                sym_mul(random_sym_element(rng, quiver), random_sym_element(rng, quiver)),
                gl_commutator(random_gl(rng, quiver, dim), random_gl(rng, quiver, dim)),
            ):
                for value in product.terms.values():
                    _check_value(value)
    assert spy["polynomials"] and spy["elements"]
    # every keyed class has its products made through the one packed constructor
    keyed = {HH0Element, PathAlgebraElement, TensorElement, QPAElement, SymElement, GlElement}
    assert spy["keyed"] == keyed
