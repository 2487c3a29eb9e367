"""Failed verify-suite cases carry the formatted nonzero difference element."""

import random

from nhq import necklace_bracket, project
from nhq import suites
from nhq.expr import format_hh0, format_sym
from nhq.sampling import random_hh0, random_quiver
from nhq.trace import lift_necklace_combination


def _drawn_pairs(seed, cases, draws):
    """Replay the quiver and the operands each case of a suite draws."""
    rng = random.Random(seed)
    for _ in range(cases):
        q = random_quiver(rng)
        yield [random_hh0(rng, q, max_len=5) for _ in range(draws)]


def test_lie_failure_reports_the_antisymmetry_residual(monkeypatch):
    # [x, y] + x is no longer antisymmetric: [x, y]' + [y, x]' = x + y
    monkeypatch.setattr(suites, "necklace_bracket", lambda x, y: necklace_bracket(x, y) + x)
    reports = suites.suite_lie(seed=11, cases=4)
    failed = 0
    for report, (x, y, _) in zip(reports, _drawn_pairs(11, 4, 3)):
        if (x + y).is_zero():
            continue
        failed += 1
        assert report.status == "failed"
        assert report.residual == format_hh0(x + y)
        assert report.notes == ("antisymmetry",)
        assert f"  residual: {format_hh0(x + y)}" in report.to_text()
    assert failed


def test_dirac_failure_reports_the_sym_residual(monkeypatch):
    # a reversed bracket negates the right-hand side, so the difference is
    # twice the true bracket, lifted and projected mod h
    monkeypatch.setattr(suites, "necklace_bracket", lambda x, y: necklace_bracket(y, x))
    reports = suites.suite_dirac(seed=5, cases=4)
    failed = 0
    for report, (x, y) in zip(reports, _drawn_pairs(5, 4, 2)):
        expected = project(lift_necklace_combination(necklace_bracket(x, y))).constant_part()
        if expected.is_zero():
            assert report.status == "verified"
            continue
        failed += 1
        assert report.status == "failed"
        assert report.residual == format_sym(expected.scale(2))
        assert report.notes == ()
    assert failed


def test_passing_cases_carry_no_residual():
    for report in suites.suite_lie(seed=11, cases=3) + suites.suite_dirac(seed=5, cases=3):
        assert report.status == "verified" and report.residual is None and not report.notes
