"""Failed verify-suite cases carry the formatted nonzero difference element."""

import io
import os
import random
from contextlib import redirect_stdout

import pytest

from nhq import necklace_bracket, project
from nhq import repspace, suites
from nhq.cli import main
from nhq.expr import format_hh0, format_sym
from nhq.sampling import random_hh0, random_quiver
from nhq.sampling import two_loop
from nhq.schedler import marked_word
from nhq.trace import enumerate_generators, lift_necklace_combination


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


# -- failure paths of the remaining suites -------------------------------------
# Each check is broken on one side; the report must name the first failing
# pair's residual, lhs - rhs in canonical printed form, and its note.

from nhq.repspace import WeylElement, gauge_act, poisson, weyl_commutator  # noqa: E402
from nhq.sampling import a2, a3p, jordan  # noqa: E402
from nhq.schedler import qpa_mul, straighten  # noqa: E402


def test_pbw_section_failure(monkeypatch):
    monkeypatch.setattr(suites, "project", lambda x: project(x).scale(2))
    reports = suites.suite_pbw(4, section_cases=3, confluence_cases=0, assoc_cases=0)
    assert [r.status for r in reports] == ["failed"] * 3
    assert reports[0].to_text() == (
        "pbw-section[0]: failed\n  residual: -2/3*[a0.a1.a0'] & [a0'.a1'.a0'.a2]"
    )
    assert reports[2].residual == "(-1 - 2*h)*[a0'.a0'] & [a0.a0'.a0']"


def test_pbw_confluence_failure_names_the_strategy(monkeypatch):
    def broken(q, cfg, strategy="first", rng=None):
        out = straighten(q, cfg, strategy=strategy, rng=rng)
        return out.scale(2) if strategy == "middle" else out

    monkeypatch.setattr(suites, "straighten", broken)
    reports = suites.suite_pbw(4, section_cases=0, confluence_cases=2, assoc_cases=0)
    assert reports[0].residual == "(a1',1) & ev0"
    assert reports[1].residual == "h*(a1,1) & (a1,2)(a1',3) + (a0,1)(a1,2)(a0',3)(a1,4)(a1',5)"
    assert all(r.notes == ("strategy middle against first",) for r in reports)


def test_pbw_assoc_failure(monkeypatch):
    # (xy + x)z + (xy + x) - (x(yz + y) + x) = xz
    monkeypatch.setattr(suites, "qpa_mul", lambda x, y: qpa_mul(x, y) + x)
    reports = suites.suite_pbw(4, section_cases=0, confluence_cases=0, assoc_cases=2)
    assert reports[0].to_text() == (
        "pbw-assoc[0]: failed\n  residual: (a0',1)(a1',2)(a2',3)(a1,4) & ev0"
    )
    assert reports[1].residual == "(a0,1)(a0,2)(a0',3)(a0',4) & (a0,5)(a0',6)(a1,7)(a1',8)"


def test_poisson_failure_names_the_coordinate_pair(monkeypatch):
    monkeypatch.setattr(suites, "poisson", lambda f, g: poisson(f, g).scale(2))
    (report,) = suites.suite_poisson(jordan(), (2,))
    assert report.to_text() == (
        "poisson[0]: failed\n  residual: 1\n  note: {(x)_{1,1}, (x')_{1,1}}"
    )


def test_gauge_failure_names_the_basis_element_and_coordinate(monkeypatch):
    monkeypatch.setattr(
        suites, "gauge_act", lambda q, d, i, p, qq, f: gauge_act(q, d, i, p, qq, f) + f
    )
    (report,) = suites.suite_gauge(a2(), (1, 2))
    assert report.to_text() == (
        "gauge[0]: failed\n  residual: -(a)_{1,1}\n  note: e^1_{1,1} on (a)_{1,1}"
    )


def test_gauge_commutator_not_divisible_by_h_is_the_residual(monkeypatch):
    monkeypatch.setattr(suites, "weyl_commutator", lambda t, x: weyl_commutator(t, x) + x)
    (report,) = suites.suite_gauge(a2(), (1, 2))
    assert report.residual == "(1 + h)*[a]_{1,1}"
    assert report.notes == ("e^1_{1,1} on (a)_{1,1}: commutator is not divisible by h",)


def test_poisson_with_a_broken_double_bracket_side_names_the_first_pair(monkeypatch):
    # every path entry doubled: the double-bracket side of each pair is 4 times its value
    entry = suites.path_matrix_entry
    monkeypatch.setattr(suites, "path_matrix_entry", lambda *args: entry(*args).scale(2))
    (report,) = suites.suite_poisson(two_loop(), (2,))
    assert report.to_text() == "poisson[0]: failed\n  residual: -3\n  note: {(x)_{1,1}, (x')_{1,1}}"


def test_gauge_with_a_broken_tau_side_names_the_first_pair(monkeypatch):
    # tau(e) + [a]_{1,1}: the extra position fails against the first starred coordinate
    monkeypatch.setattr(suites, "tau", lambda q, d, v, _f=suites.tau: _f(q, d, v) + WeylElement.position(q, d, 0, 1, 1))
    (report,) = suites.suite_gauge(a2(), (1, 2))
    assert report.to_text() == "gauge[0]: failed\n  residual: -1\n  note: e^1_{1,1} on (a')_{1,1}"


def test_poisson_makes_each_letter_pairs_double_bracket_once(monkeypatch):
    # two arrows, plain or starred: 16 letter pairs behind 32 x 32
    # coordinate pairs, and each path entry is contracted once
    brackets, entries = [], []
    monkeypatch.setattr(suites, "double_bracket", lambda x, y, _f=suites.double_bracket: brackets.append(1) or _f(x, y))
    monkeypatch.setattr(
        suites, "path_matrix_entry", lambda *args, _f=suites.path_matrix_entry: entries.append(args[2:]) or _f(*args)
    )
    (report,) = suites.suite_poisson(two_loop(), (2,))
    assert report.ok
    assert len(brackets) == 16
    assert entries and len(entries) == len(set(entries))


@pytest.mark.parametrize("suite, kernel", [("gauge", "weyl_commutator"), ("poisson", "poisson")])
def test_a_suite_repacks_each_operand_at_most_once(suite, kernel, monkeypatch):
    # the operands are re-packed once into one layout (``one_layout``), at
    # most once each, and no commutator or direct bracket of a pair re-packs
    # them
    phase, repacks = ["other"], []
    repack = repspace._Codec.repack
    monkeypatch.setattr(repspace._Codec, "repack", lambda self, *args: repacks.append(phase[0]) or repack(self, *args))

    def within(name, f):
        def run(*args):
            phase[0] = name
            try:
                return f(*args)
            finally:
                phase[0] = "other"

        return run

    monkeypatch.setattr(suites, "one_layout", within("layout", suites.one_layout))
    monkeypatch.setattr(suites, kernel, within("kernel", getattr(suites, kernel)))
    q, d = a3p(), (2, 2, 2, 1)
    (report,) = getattr(suites, f"suite_{suite}")(q, d)
    assert report.ok
    coordinates = sum([2 * d[a.source] * d[a.target] for a in q.arrows])
    operands = coordinates + (sum([k * k for k in d]) if suite == "gauge" else 0)
    assert 0 < repacks.count("layout") <= operands
    assert "kernel" not in repacks


def test_ideal_failure_names_the_generator(wrong_spliced_int):
    d = (2,)
    decompose, chi = suites.suite_ideal(0, quiver=jordan(), dim=d)[:2]
    assert decompose.to_text() == (
        "ideal-decompose[0.0]: failed\n  residual: 2*h + [x]_{2,2}^2\n"
        "  note: generator [ev] at vertex v, mark 0"
    )
    assert chi.to_text() == (
        "ideal-chi[0.0]: failed\n  note: inconsistent or undetermined character: {'v': []}"
    )


def test_verify_ideal_decomposes_each_generator_once(monkeypatch):
    # two parameter sets and two character solves read one image per
    # generator, and the trace cache keeps each image under its vertex and
    # marked word: generators that share both (the marks of a necklace
    # whose word repeats a rotation) share one straightening and one
    # image, and no open word is contracted, which only the lazy ``pairs``
    # view does
    calls = {"ideal_normal_forms": 0, "_image_parts": 0, "open words": 0}
    for name in ("ideal_normal_forms", "_image_parts"):
        def counted(*args, _f=getattr(repspace, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(repspace, name, counted)

    def contracted(quiver, dim, items, quantum, ends=None, codec=None, _f=repspace.contracted):
        calls["open words"] += ends is not None
        return _f(quiver, dim, items, quantum, ends, codec)

    monkeypatch.setattr(repspace, "contracted", contracted)
    path = os.path.join(os.path.dirname(__file__), "data", "two_loop.json")
    with redirect_stdout(io.StringIO()) as out:
        assert main(["verify", "ideal", "-q", path, "--dim", "v=2"]) == 0
    assert out.getvalue().endswith("summary: 4 ok, 0 failed\n")
    generators = enumerate_generators(two_loop(), 3)
    distinct = {(vertex, marked_word(two_loop(), p, vertex, mark)) for p, vertex, mark in generators}
    assert (len(generators), len(distinct)) == (97, 85)
    assert calls == {"ideal_normal_forms": 85, "_image_parts": 85, "open words": 0}


def test_verify_ideal_makes_each_generators_parts_at_its_first_parameter_set(monkeypatch):
    # each parameter set decomposes every generator afresh, and the trace
    # cache keeps the parts free of (r, lambda): the first set makes the
    # parts of each (vertex, marked word) once, and the second reads every
    # one of them back
    sets = []  # [parameters, parts made] per parameter set, in turn
    decompose, image_parts = suites.decompose_ideal_image, repspace._image_parts

    def decomposed(*args):
        if not sets or sets[-1][0] is not args[-1]:
            sets.append([args[-1], 0])
        return decompose(*args)

    def made(*args):
        sets[-1][1] += 1
        return image_parts(*args)

    monkeypatch.setattr(suites, "decompose_ideal_image", decomposed)
    monkeypatch.setattr(repspace, "_image_parts", made)
    path = os.path.join(os.path.dirname(__file__), "data", "two_loop.json")
    with redirect_stdout(io.StringIO()) as out:
        assert main(["verify", "ideal", "-q", path, "--dim", "v=2"]) == 0
    assert out.getvalue().endswith("summary: 4 ok, 0 failed\n")
    assert [n for _, n in sets] == [85, 0]
