import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from nhq.cli import main
import nhq.quiver
from nhq.schedler import clear_straighten_cache
from nhq.work import MAX_EXPONENT, MAX_INDEX_ASSIGNMENTS, MAX_KEY_BITS, MAX_MERGE_LETTERS, MAX_REWRITES

DATA = os.path.join(os.path.dirname(__file__), "data")


def run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def q(name):
    return os.path.join(DATA, f"{name}.json")


def test_bracket_example():
    code, out = run("bracket", "-q", q("jordan"), "[x]", "[x']")
    assert code == 0
    assert out.strip() == "[ev]"


def test_bracket_reverse_sign():
    code, out = run("bracket", "-q", q("jordan"), "[x']", "[x]")
    assert code == 0
    assert out.strip() == "-[ev]"


def test_qcomm_paper_example():
    code, out = run(
        "qcomm", "-q", q("a3p"), "(a0',1)(a1',2)(a2',3)", "(a2',1)(a2,2)"
    )
    assert code == 0
    assert out.strip() == "h*(a0',1)(a1',2)(a2',3)"


def test_qmul_stacks_heights():
    code, out = run("qmul", "-q", q("jordan"), "(x',1)", "(x,1)")
    assert code == 0
    assert out.strip() == "h*ev + (x,1) & (x',2)"


def test_qmul_past_256_letters():
    """A 301-letter product, whose straighten-cache keys hold successors
    past 255: the one-letter block goes below the 300-letter cycle."""
    word = "".join(f"(x,{k})" for k in range(1, 301))
    code, out = run("qmul", "-q", q("jordan"), word, "(x,1)")
    assert code == 0
    assert out == "(x,1) & " + "".join(f"(x,{k})" for k in range(2, 302)) + "\n"


def test_dbracket():
    code, out = run("dbracket", "-q", q("jordan"), "x", "x'")
    assert code == 0
    assert out.strip() == "ev (x) ev"


def test_trace_and_qtrace():
    code, out = run("trace", "-q", q("jordan"), "--dim", "v=1", "[x.x']")
    assert code == 0
    assert out.strip() == "(x)_{1,1}*(x')_{1,1}"
    code, out = run("qtrace", "-q", q("jordan"), "--dim", "v=1", "(x',1)(x,2)")
    assert code == 0
    assert out.strip() == "h + [x]_{1,1}*d(x)_{1,1}"


def test_moment_components():
    code, out = run("moment", "-q", q("a3p"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "w_0 = -a0'.a0 + a2.a2' + p.p'"
    assert lines[4] == "w_inf = -p'.p"


def test_moment_deformed():
    code, out = run("moment", "-q", q("jordan"), "--lambda", "v=5")
    assert code == 0
    assert out.splitlines()[0] == "w = -5*ev + x.x' - x'.x"


def test_moment_rejects_r(capsys):
    # the moment element reads only --lambda
    code, out = run("moment", "-q", q("jordan"), "--r", "v=1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: moment does not take --r") and err.count("\n") == 1
    assert out == ""


def test_round_trip_of_printed_output():
    from nhq.expr import parse_qpa_element
    from nhq.quiver import parse_quiver

    with open(q("a3p")) as fh:
        quiver = parse_quiver(fh.read())
    _, out = run("qcomm", "-q", q("a3p"), "(a0',1)(a1',2)(a2',3)", "(a2',1)(a2,2)")
    reparsed = parse_qpa_element(quiver, out.strip())
    _, out2 = run("qmul", "-q", q("a3p"), out.strip(), "1")
    assert out2.strip() == out.strip()
    assert not reparsed.is_zero()


def test_exit_code_parse_error(capsys):
    code, _ = run("bracket", "-q", q("jordan"), "[x", "[x']")
    assert code == 2
    code, _ = run("bracket", "-q", q("jordan"), "[zz]", "[x]")
    assert code == 2


def test_empty_expression_names_its_end(capsys):
    code, _ = run("bracket", "-q", q("jordan"), "", "[x]")
    assert code == 2
    assert capsys.readouterr().err == "error: position 0: unexpected end of expression\n"


def test_trailing_operator_names_the_end(capsys):
    code, _ = run("bracket", "-q", q("jordan"), "[x]+", "[x]")
    assert code == 2
    assert capsys.readouterr().err == "error: position 4: unexpected end of expression\n"


def test_missing_scalar_names_the_end(capsys):
    code, _ = run("qtrace", "-q", q("jordan"), "--dim", "v=1", "(x,1)+")
    assert code == 2
    assert capsys.readouterr().err == "error: position 6: expected a scalar, found end of expression\n"


def test_exit_code_dimension_error():
    code, _ = run("trace", "-q", q("jordan"), "--dim", "v=0", "[x]")
    assert code == 3
    code, _ = run("trace", "-q", q("jordan"), "[x]")
    assert code == 3


def test_exit_code_missing_file():
    code, _ = run("bracket", "-q", "/nonexistent.json", "[x]", "[x]")
    assert code == 2


def test_exit_code_division_by_zero(capsys):
    code, _ = run("bracket", "-q", q("jordan"), "1/0*[x]", "[x]")
    assert code == 2
    assert "division by zero" in capsys.readouterr().err


def test_exit_code_non_ascii_digit(capsys):
    code, _ = run("bracket", "-q", q("jordan"), "\u00b2*[x]", "[x]")
    assert code == 2
    assert "unexpected character" in capsys.readouterr().err


def test_exit_code_quiver_path_is_directory(capsys):
    code, _ = run("bracket", "-q", DATA, "[x]", "[x]")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_suite_exit_codes_and_json():
    code, out = run(
        "verify", "lie", "--seed", "3", "--cases", "5", "--json"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(doc["status"] == "verified" for doc in lines)
    assert len(lines) == 5


def test_verify_deterministic_output():
    args = ("verify", "dirac", "--seed", "11", "--cases", "8")
    code1, out1 = run(*args)
    code2, out2 = run(*args)
    assert (code1, out1) == (code2, out2)
    assert code1 == 0
    assert "summary: 8 ok, 0 failed" in out1


def test_verify_cubic_on_a3p_small():
    code, out = run(
        "verify",
        "cubic",
        "-q",
        q("a3p"),
        "--dim",
        "0=2,1=2,2=2,inf=1",
        "--cases",
        "5",
        "--seed",
        "7",
    )
    assert code == 0
    assert "summary: 5 ok, 0 failed" in out


def test_solve_chi_cli():
    code, out = run("solve-chi", "-q", q("a2"), "--dim", "1=1,2=1", "--json")
    assert code == 0
    doc = json.loads(out.strip().splitlines()[0])
    assert doc["status"] == "solved"
    assert doc["character"] == {"1": "-1", "2": "0"}


def test_kernel_cli():
    code, out = run(
        "kernel", "-q", q("a3p"), "--dim", "0=2,1=2,2=2,inf=1"
    )
    assert code == 0
    assert "-14 + 2*r_0 + 2*r_1 + 2*r_2 + r_inf = 0" in out
    assert "14 + 4*r_0 + 2*r_1 + 2*r_2 = 0" in out


def test_kernel_rejects_parameters_it_does_not_read(capsys):
    # the constraints are functions of r, and the character is free of lambda
    for flag in ("--r", "--lambda"):
        code, out = run("kernel", "-q", q("jordan"), "--dim", "v=2", flag, "v=5")
        assert code == 2, flag
        err = capsys.readouterr().err
        assert err.startswith(f"error: kernel does not take {flag}:") and err.count("\n") == 1
        assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("bracket", "-q", q("jordan"), "[x]", "[x']"),
        ("dbracket", "-q", q("jordan"), "x", "x'"),
        ("qmul", "-q", q("jordan"), "(x',1)", "(x,1)"),
        ("qcomm", "-q", q("jordan"), "(x',1)", "(x,1)"),
        ("trace", "-q", q("jordan"), "--dim", "v=2", "[x.x']"),
        ("qtrace", "-q", q("jordan"), "--dim", "v=2", "(x',1)(x,2)"),
        ("moment", "-q", q("jordan")),
    ],
    ids=lambda argv: argv[0],
)
def test_verbs_without_reports_refuse_json(argv, capsys):
    # only verify, solve-chi and kernel print reports, so only they take --json
    assert run(*argv)[0] == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--json")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --json" in captured.err


def test_unknown_vertex_in_parameters_exits_2(capsys):
    for argv in (
        ("kernel", "-q", q("a3p"), "--dim", "0=2,1=2,2=2,inf=1", "--r", "zz=1"),
        ("solve-chi", "-q", q("a2"), "--dim", "1=1,2=1", "--lambda", "zz=1"),
        ("moment", "-q", q("jordan"), "--lambda", "zz=5"),
        ("verify", "ideal", "-q", q("jordan"), "--dim", "v=1", "--r", "zz=1"),
    ):
        code, out = run(*argv)
        assert code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: unknown vertex 'zz'") and err.count("\n") == 1
        assert out == ""


def test_verify_rejects_flags_the_suite_does_not_read(capsys):
    cases = [
        (("verify", "qmoment", "--r", "v=5"), "--r"),
        (("verify", "cubic", "-q", q("jordan"), "--dim", "v=1", "--lambda", "v=1"), "--lambda"),
        (("verify", "pbw", "--cases", "1"), "--cases"),
        (("verify", "gauge", "--cases", "1"), "--cases"),
        (("verify", "lie", "-q", q("jordan"), "--dim", "v=1"), "--dim"),
        (("verify", "cubic", "--dim", "v=1"), "--dim"),
        (("verify", "ideal", "--r", "v=1"), "--r"),
        (("verify", "poisson", "--seed", "9"), "--seed"),
        (("verify", "gauge", "-q", q("a2"), "--seed", "0"), "--seed"),
        (("verify", "ideal", "-q", q("jordan"), "--dim", "v=1", "--r", "v=1", "--seed", "5"), "--seed"),
        (("verify", "ideal", "-q", q("a2"), "--lambda", "1=1,2=-1", "--seed", "0"), "--seed"),
    ]
    for argv, flag in cases:
        code, out = run(*argv)
        assert code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and err.count("\n") == 1, argv
        assert out == ""


def test_verify_accepts_the_flags_the_suite_reads():
    code, out = run("verify", "ideal", "-q", q("jordan"), "--dim", "v=1", "--r", "v=1")
    assert code == 0
    assert "summary: 2 ok, 0 failed" in out
    code, out = run("verify", "qmoment", "-q", q("jordan"), "--dim", "v=1", "--json")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_verify_rejects_a_non_positive_case_count(capsys):
    for argv in (("verify", "dirac", "--cases", "-3"), ("verify", "lie", "--cases", "0")):
        code, out = run(*argv)
        assert code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--cases" in err and err.count("\n") == 1, argv
        assert out == ""


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "nhq", "bracket", "-q", q("jordan"), "[x]", "[x']"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[ev]"


def test_a_closed_stdout_exits_141_without_a_traceback():
    """The reader of stdout is gone before the command writes: it exits
    with 128 + SIGPIPE and leaves stderr empty, the flush at exit too."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "nhq", "qmul", "-q", q("jordan"), "(x',1)", "(x,1)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_oversized_contraction_is_refused_before_any_work(capsys):
    # 8 letters at d = 12: the accumulated terms grow towards 12^8, so the
    # command is refused up front instead of running for minutes
    word = "(x',1)(x,2)(x,3)(x',4)(x,5)(x',6)(x,7)(x',8)"
    t0 = time.perf_counter()
    code, out = run("qtrace", "-q", q("jordan"), "--dim", "v=12", word)
    assert time.perf_counter() - t0 < 10
    assert code == 3
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: contraction has ") and err.count("\n") == 1
    assert f"above the limit {MAX_INDEX_ASSIGNMENTS}" in err


def test_oversized_trace_sum_is_refused_before_any_contraction(capsys):
    # at d = 6 the word straightens to 13 configurations; the 8-letter one
    # alone is above the limit, and the others used to be traced for
    # seconds before it was refused.  The budget is Σ 6^letters of them all.
    word = "(x',1)(x,2)(x,3)(x',4)(x,5)(x',6)(x,7)(x',8)"
    t0 = time.perf_counter()
    code, out = run("qtrace", "-q", q("jordan"), "--dim", "v=6", word)
    assert time.perf_counter() - t0 < 1
    assert code == 3
    assert out == ""
    assignments = 6**8 + 4 * 6**6 + 5 * 6**4 + 3 * 6**2
    assert capsys.readouterr().err == (
        f"error: contraction has {assignments} index assignments, "
        f"above the limit {MAX_INDEX_ASSIGNMENTS}\n"
    )


def test_a_key_wider_than_the_limit_is_refused_before_any_token(capsys):
    # one letter at d = 1000 is 1,000 index assignments, but its layout
    # has 2 * 1000^2 fields: every token would be an int of about 2,000,000
    # bits, and the contraction ran past 100 s before the width was charged
    t0 = time.perf_counter()
    code, out = run("trace", "-q", q("jordan"), "--dim", "v=1000", "[x]")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (3, "")
    bits = 2 * 1000**2 + 1
    assert capsys.readouterr().err == f"error: packed keys need {bits} bits, above the limit {MAX_KEY_BITS}\n"


def test_oversized_exponent_is_refused_at_parse_time(capsys):
    cases = (
        ("bracket", "-q", q("jordan"), "h^300000000*[x]", "[x']"),
        ("bracket", "-q", q("jordan"), "[x^4097]", "[x']"),
        ("qmul", "-q", q("jordan"), "h^5000*(x,1)", "(x',1)"),
    )
    for argv in cases:
        t0 = time.perf_counter()
        code, out = run(*argv)
        assert time.perf_counter() - t0 < 10, argv
        assert code == 2, argv
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: position ") and err.count("\n") == 1, argv
        assert f"above the limit {MAX_EXPONENT}" in err, argv
    code, out = run("bracket", "-q", q("jordan"), f"h^{MAX_EXPONENT}*[x]", "[x']")
    assert code == 0
    assert out.strip() == f"h^{MAX_EXPONENT}*[ev]"


def test_overlong_integer_literals_exit_2(capsys):
    # int() refuses literals past Python's digit limit; each is an input error
    long_int = "9" * 5000
    cases = (
        ("bracket", "-q", q("jordan"), f"{long_int}*[x]", "[x']"),
        ("qmul", "-q", q("jordan"), f"(x,{long_int})", "(x',1)"),
    )
    for argv in cases:
        code, out = run(*argv)
        assert code == 2, argv
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: position ") and err.count("\n") == 1, argv
        assert "integer literal of 5000 digits is too long" in err, argv


def test_oversized_path_power_is_refused_before_expanding(capsys):
    t0 = time.perf_counter()
    code, out = run("bracket", "-q", q("jordan"), "[(x+x')^21]", "[x']")
    assert time.perf_counter() - t0 < 10
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: position ") and err.count("\n") == 1
    # x^5 (32 terms) times x^16 (2^16 terms) is the first product past the limit
    assert f"product of 32*65536 terms, above the limit {MAX_INDEX_ASSIGNMENTS}" in err
    code, out = run("bracket", "-q", q("jordan"), "[x^4096]", "[x'.x']")
    assert code == 0
    assert out.strip() == "8192*[" + "x." * 4095 + "x']"
    code, out = run("bracket", "-q", q("jordan"), "[(x+x')^3]", "[x]")
    assert code == 0
    assert out.strip() == "-3*[x.x] - 6*[x.x'] - 3*[x'.x']"


def test_path_power_bound_counts_the_terms_it_forms(capsys):
    # (x+ev)^n has n+1 terms: the bound follows the terms each product
    # forms, not the 2^n words of the expansion
    code, out = run("bracket", "-q", q("jordan"), "[(x+ev)^21]", "[x']")
    assert code == 0
    assert capsys.readouterr().err == ""
    # [x^k]·[x'] = k [x^(k-1)], so the result is sum_k C(21,k) k [x^(k-1)]
    pieces = [
        f"{math.comb(21, k) * k}*[{'.'.join('x' * (k - 1)) or 'ev'}]" for k in range(1, 22)
    ]
    assert out.strip() == " + ".join(pieces)


def test_scalar_power_bound_counts_nonzero_coefficients(capsys):
    # (1+h)^1024 has 1025 coefficients, so squaring it is refused unformed
    t0 = time.perf_counter()
    code, out = run("bracket", "-q", q("jordan"), "(1+h)^4096*[x]", "[x']")
    assert time.perf_counter() - t0 < 10
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == (
        "error: position 5: power needs a product of 1025*1025 terms, "
        f"above the limit {MAX_INDEX_ASSIGNMENTS}\n"
    )
    # a power of a one-term scalar stays 1x1 at every step
    code, out = run("bracket", "-q", q("jordan"), "h^4096*[x]", "[x']")
    assert (code, out.strip()) == (0, "h^4096*[ev]")
    code, out = run("bracket", "-q", q("jordan"), "(1+h)^1024*[x]", "[x']")
    assert code == 0
    assert out.startswith("(1 + 1024*h + 523776*h^2 + ") and out.endswith(" + h^1024)*[ev]\n")


def test_oversized_coefficient_output_exits_3(capsys):
    # 99^4096 has 8,174 digits: it parses, and the bracket is computed, but
    # int refuses to print more than its digit limit
    code, out = run("bracket", "-q", q("jordan"), "99^4096*[x]", "[x']")
    assert code == 3
    assert out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err == (
        f"error: coefficient has more than {sys.get_int_max_str_digits()} digits, "
        "above the limit for printing\n"
    )
    assert run("bracket", "-q", q("jordan"), "99^2048*[x]", "[x']")[0] == 0


@pytest.mark.parametrize(
    "verb", [("solve-chi",), ("verify", "ideal"), ("verify", "ideal", "--json")], ids=" ".join
)
def test_a_character_past_the_digit_limit_exits_3(verb, capsys):
    # r of 4,300 nines is read, but the character and its closed forms are
    # r plus a constant, and one of them takes a digit more than int prints
    r = "9" * sys.get_int_max_str_digits()
    code, out = run(*verb, "-q", q("jordan"), "--dim", "v=2", "--r", f"v={r}")
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        f"error: coefficient has more than {sys.get_int_max_str_digits()} digits, "
        "above the limit for printing\n"
    )


@pytest.mark.parametrize("value", ["1e999999999", "1e5000", "-1E+4300", "1e-4300", "1.5e4299"])
def test_a_rational_past_the_digit_limit_exits_2_unexpanded(value, capsys):
    # Fraction would write 10^999999999 out, for minutes; the value is
    # refused, as int refuses a literal of more digits than its limit
    t0 = time.perf_counter()
    code, out = run("solve-chi", "-q", q("jordan"), "--dim", "v=2", "--r", f"v={value}")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: bad rational {value!r} in --r\n"


def test_rationals_within_the_digit_limit_read_as_before():
    from nhq.cli import _parse_assignments

    got = _parse_assignments("a=1/2, b=0.5, c=-3, d=1e3, e=1e4299", "--r")
    assert got == {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": Fraction(-3), "d": Fraction(1000), "e": Fraction(10**4299)}
    for value, character in (("1/2", "-3/2"), ("0.5", "-3/2"), ("-3", "-5")):
        code, out = run("solve-chi", "-q", q("jordan"), "--dim", "v=2", "--r", f"v={value}")
        assert code == 0 and f"character: v: {character}\n" in out
    assert run("trace", "-q", q("jordan"), "--dim", "v=1e3", "[ev]") == (0, "1000\n")


def _two_loop_words(n, seed):
    """Two seeded random necklaces of n letters on the two-loop quiver."""
    rng = random.Random(seed)
    return [[rng.choice(("x", "x'", "y", "y'")) for _ in range(n)] for _ in range(2)]


def test_straightening_past_the_rewrite_budget_exits_3(capsys):
    # x'^12 stacked below x^12 is a 24-letter Jordan configuration in which
    # every x' must pass every x; each of those swaps contracts a pair and
    # leaves a 22-letter correction, so the product would run for minutes
    x = "".join(f"(x',{k})" for k in range(1, 13))
    y = "".join(f"(x,{k})" for k in range(1, 13))
    clear_straighten_cache()
    t0 = time.perf_counter()
    code, out = run("qmul", "-q", q("jordan"), x, y)
    assert time.perf_counter() - t0 < 10
    assert code == 3
    assert out == ""
    assert capsys.readouterr().err == (
        f"error: straightening needs more rewrites than the limit {MAX_REWRITES}\n"
    )


def test_oversized_bracket_is_refused_before_any_merge(capsys):
    # two 400-letter words contract about 400^2/4 letter pairs, each merge
    # holding 798 letters: the bracket would run for half a minute
    a, b = _two_loop_words(400, 1)
    partners = (("x", "x'"), ("x'", "x"), ("y", "y'"), ("y'", "y"))
    pairs = sum(a.count(u) * b.count(v) for u, v in partners)
    t0 = time.perf_counter()
    code, out = run("bracket", "-q", q("two_loop"), f"[{'.'.join(a)}]", f"[{'.'.join(b)}]")
    assert time.perf_counter() - t0 < 10
    assert code == 3
    assert out == ""
    assert capsys.readouterr().err == (
        f"error: bracket merges hold up to {pairs * 798} letters, "
        f"above the limit {MAX_MERGE_LETTERS}\n"
    )
    # at 200 letters the bracket is admitted; every term has 398 letters
    a, b = _two_loop_words(200, 1)
    code, out = run("bracket", "-q", q("two_loop"), f"[{'.'.join(a)}]", f"[{'.'.join(b)}]")
    assert code == 0
    assert capsys.readouterr().err == ""
    words = out[out.index("[") :].split("[")[1:]
    assert len(words) > 1000
    assert all(w[: w.index("]")].count(".") == 397 for w in words)


def test_oversized_double_bracket_is_refused_before_any_term(capsys):
    # paths have no rotations: every contracting letter pair of the two
    # 400-letter paths forms a tensor term of 798 letters
    a, b = _two_loop_words(400, 1)
    partners = (("x", "x'"), ("x'", "x"), ("y", "y'"), ("y'", "y"))
    pairs = sum(a.count(u) * b.count(v) for u, v in partners)
    t0 = time.perf_counter()
    code, out = run("dbracket", "-q", q("two_loop"), ".".join(a), ".".join(b))
    assert time.perf_counter() - t0 < 1
    assert code == 3
    assert out == ""
    assert capsys.readouterr().err == (
        f"error: double bracket terms hold up to {pairs * 798} letters, "
        f"above the limit {MAX_MERGE_LETTERS}\n"
    )
    # at 200 letters the double bracket is admitted: one term per pair
    a, b = _two_loop_words(200, 1)
    pairs = sum(a.count(u) * b.count(v) for u, v in partners)
    assert pairs * 398 <= MAX_MERGE_LETTERS
    code, out = run("dbracket", "-q", q("two_loop"), ".".join(a), ".".join(b))
    assert code == 0
    assert capsys.readouterr().err == ""
    assert out.count(" (x) ") > 1000


def test_quiver_with_more_arrows_than_letter_codes_exits_2(monkeypatch, capsys):
    # a letter is coded as chr(2*arrow + starred), so the arrow count is
    # bounded by the code range; the limit is lowered to test the refusal
    monkeypatch.setattr(nhq.quiver, "MAX_ARROWS", 1)
    code, out = run("bracket", "-q", q("two_loop"), "[x]", "[x']")
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: arrows: 2 arrows, above the limit 1\n"
    assert run("bracket", "-q", q("jordan"), "[x]", "[x']") == (0, "[ev]\n")


def test_quiver_with_more_vertices_than_characters_exits_2(monkeypatch, capsys):
    # the straighten cache's keys hold a vertex as chr(vertex), so the vertex
    # count is bounded by the code range; the limit is lowered to test the
    # refusal
    monkeypatch.setattr(nhq.quiver, "MAX_VERTICES", 1)
    code, out = run("bracket", "-q", q("a2"), "[a]", "[a']")
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: vertices: 2 vertices, above the limit 1\n"
    assert run("bracket", "-q", q("jordan"), "[x]", "[x']") == (0, "[ev]\n")


def test_one_parser_serves_every_call_of_a_process(monkeypatch, capsys):
    """``main`` builds its parser once per process.  Two verbs, an unknown
    verb and a verb's --help, run in turn on that one parser, print what a
    freshly built parser prints for each."""
    import nhq.cli as cli

    calls = (
        ["bracket", "-q", q("jordan"), "[x]", "[x']"],
        ["qtrace", "-q", q("jordan"), "--dim", "v=1", "(x',1)(x,2)"],
        ["bogus"],
        ["qmul", "--help"],
    )

    def outputs():
        out = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    cli.build_parser.cache_clear()
    shared = outputs()
    assert (cli.build_parser.cache_info().misses, cli.build_parser.cache_info().hits) == (1, 3)
    assert [code for code, _, _ in shared] == [0, 0, 2, 0]
    assert "invalid choice: 'bogus'" in shared[2][2] and shared[3][1].startswith("usage: nhq qmul")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outputs() == shared
