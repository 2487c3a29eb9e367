import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout

from nhq.cli import main
import nhq.quiver
from nhq.expr import MAX_EXPONENT
from nhq.necklace import MAX_MERGE_LETTERS
from nhq.repspace import MAX_INDEX_ASSIGNMENTS
from nhq.schedler import MAX_REWRITES, clear_straighten_cache

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
