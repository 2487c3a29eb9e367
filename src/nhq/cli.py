"""Batch command-line interface.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 dimension
error, 141 (128 + SIGPIPE) the reader of stdout went away.  Randomized
suites take explicit seeds and fixed defaults so runs are reproducible
byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import (
    CompositionError,
    DimensionError,
    ExpressionError,
    MismatchError,
    QuiverFormatError,
)
from .expr import (
    format_hh0,
    format_path_element,
    format_poly,
    format_qpa,
    format_tensor,
    format_weyl,
    parse_hh0_element,
    parse_path_element,
    parse_qpa_element,
)
from .necklace import double_bracket, moment_map, necklace_bracket
from .quiver import make_dimension_vector, parse_quiver
from .schedler import make_params, qpa_comm, qpa_mul
from .suites import SUITES
from .trace import kernel_constraint, solve_chi, trace_classical, trace_quantum


#: cases run by the randomized verify suites when --cases is not given
DEFAULT_CASES = 50


def _parse_assignments(text: str, what: str) -> dict:
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ExpressionError(f"{what} entries look like name=value, got {piece!r}")
        name, _, value = piece.partition("=")
        name = name.strip()
        if name in out:
            raise ExpressionError(f"{what} names {name} twice")
        digits, _, exponent = value.lower().partition("e")
        try:
            # Fraction writes an exponent out: refuse, as int does, more digits than Python's limit
            if exponent and 0 < sys.get_int_max_str_digits() < sum(map(str.isdigit, digits)) + abs(int(exponent)):
                raise ValueError(value)
            out[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ExpressionError(f"bad rational {value!r} in {what}") from None
    return out


def _load_quiver(args):
    if not getattr(args, "quiver", None):
        return None
    try:
        with open(args.quiver, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise QuiverFormatError(str(exc)) from None
    return parse_quiver(text)


def _require_quiver(args):
    quiver = _load_quiver(args)
    if quiver is None:
        raise ExpressionError("this command needs a quiver file (-q)")
    return quiver


def _get_dim(args, quiver, required=True):
    if not getattr(args, "dim", None):
        if required:
            raise DimensionError("this command needs --dim k=v,...")
        return None
    pairs = _parse_assignments(args.dim, "--dim")
    int_pairs = {}
    for key, value in pairs.items():
        if value.denominator != 1:
            raise DimensionError(f"dimension {value} is not an integer")
        int_pairs[key] = int(value)
    return make_dimension_vector(quiver, int_pairs)


def _get_params(args, quiver):
    return make_params(
        quiver,
        _parse_assignments(args.r, "--r") if args.r else None,
        _parse_assignments(args.lam, "--lambda") if args.lam else None,
    )


def _check_verify_flags(args) -> None:
    """Reject each verify flag that the chosen suite would not read."""
    for flag, option, value in (
        ("--seed", "seed", args.seed),
        ("--cases", "cases", args.cases),
        ("--dim", "dim", args.dim),
        ("--r", "params", args.r),
        ("--lambda", "params", args.lam),
    ):
        if value is None:
            continue
        if option not in SUITES[args.suite].options:
            raise ExpressionError(f"verify {args.suite} does not take {flag}")
        if option not in ("seed", "cases") and not args.quiver:
            raise ExpressionError(f"{flag} needs a quiver file (-q)")
    if args.seed is not None and (args.r is not None or args.lam is not None):
        # given parameters, the suite draws nothing from its generator
        raise ExpressionError(f"verify {args.suite} does not take --seed with --r or --lambda")
    if args.cases is not None and args.cases <= 0:
        raise ExpressionError(f"--cases must be a positive integer, got {args.cases}")


class _Once(argparse.Action):
    """Store a flag's value, and refuse a second use of the flag: argparse
    would keep the last one."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given twice")
        setattr(namespace, self.dest, values)


#: verb -> (help, operand parser, operation, printer, reads --dim).  A verb
#: that reads --dim takes one operand and passes the dimension vector after
#: it; the others take two operands.
OPERATIONS = {
    "bracket": ("necklace Lie bracket of two classes",
                parse_hh0_element, necklace_bracket, format_hh0, False),
    "dbracket": ("double bracket of two path elements",
                 parse_path_element, double_bracket, format_tensor, False),
    "qmul": ("product in the quantum path algebra",
             parse_qpa_element, qpa_mul, format_qpa, False),
    "qcomm": ("commutator in the quantum path algebra",
              parse_qpa_element, qpa_comm, format_qpa, False),
    "trace": ("classical trace of a necklace class",
              parse_hh0_element, trace_classical, format_poly, True),
    "qtrace": ("quantum trace of a configuration",
               parse_qpa_element, trace_quantum, format_weyl, True),
}


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every verb, built once per process: parsing
    leaves it unchanged, and help formatters read the terminal width when
    they print, not when the parser is built."""
    parser = argparse.ArgumentParser(
        prog="nhq",
        description="Exact computations in the necklace Lie algebra, the quantum "
        "path algebra, and Weyl operators on quiver representation spaces.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, dim=False, params=False, suite=False, reports=False):
        p.add_argument("-q", "--quiver", action=_Once, help="quiver file (JSON)")
        if reports:
            p.add_argument("--json", action="store_true", help="machine-readable reports")
        if dim:
            p.add_argument("--dim", action=_Once, help="dimension vector k=v,...")
        if params:
            p.add_argument("--r", action=_Once, help="order-h weights k=v,...")
            p.add_argument("--lambda", dest="lam", action=_Once, help="moment deformation k=v,...")
        if suite:
            p.add_argument("--seed", type=int, action=_Once)
            p.add_argument("--cases", type=int, action=_Once)

    for verb, (help_text, _, _, _, reads_dim) in OPERATIONS.items():
        p = sub.add_parser(verb, help=help_text)
        common(p, dim=reads_dim)
        p.add_argument("x")
        if not reads_dim:
            p.add_argument("y")

    p = sub.add_parser("moment", help="the moment element and its components")
    common(p, params=True)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, dim=True, params=True, suite=True, reports=True)
    p.add_argument("suite", choices=sorted(SUITES))

    p = sub.add_parser("solve-chi", help="solve the reduction character")
    common(p, dim=True, params=True, reports=True)

    p = sub.add_parser("kernel", help="constraints on r from the kernel of tau")
    common(p, dim=True, params=True, reports=True)

    return parser


def _emit_reports(reports, as_json: bool) -> int:
    failed = 0
    for report in reports:
        print(report.to_json() if as_json else report.to_text())
        if not report.ok:
            failed += 1
    verified = len(reports) - failed
    if not as_json:
        print(f"summary: {verified} ok, {failed} failed")
    return 1 if failed else 0


def _operate(args) -> int:
    """Run an operation verb: the quiver, then --dim, then the operands."""
    _, parse, operate, printer, reads_dim = OPERATIONS[args.verb]
    quiver = _require_quiver(args)
    dim = (_get_dim(args, quiver),) if reads_dim else ()
    texts = (args.x,) if reads_dim else (args.x, args.y)
    print(printer(operate(*[parse(quiver, text) for text in texts], *dim)))
    return 0


def _dispatch(args) -> int:
    verb = args.verb
    if verb in OPERATIONS:
        return _operate(args)

    if verb == "moment":
        quiver = _require_quiver(args)
        if args.r:
            raise ExpressionError("moment does not take --r: r enters only the quantum reduction")
        lam = _parse_assignments(args.lam, "--lambda") if args.lam else None
        data = moment_map(quiver, lam)
        print(f"w = {format_path_element(data.element)}")
        for i, name in enumerate(quiver.vertices):
            print(f"w_{name} = {format_path_element(data.components[i])}")
        return 0

    if verb == "verify":
        _check_verify_flags(args)
        quiver = _load_quiver(args)
        dim = _get_dim(args, quiver, required=False)
        params = _get_params(args, quiver) if args.r or args.lam else None
        suite_args = {
            "seed": 0 if args.seed is None else args.seed,
            "cases": DEFAULT_CASES if args.cases is None else args.cases,
            "quiver": quiver,
            "dim": dim,
            "params": params,
        }
        reports = SUITES[args.suite](suite_args)
        return _emit_reports(reports, args.json)

    if verb == "solve-chi":
        quiver = _require_quiver(args)
        dim = _get_dim(args, quiver)
        params = _get_params(args, quiver)
        report, _ = solve_chi(quiver, dim, params)
        return _emit_reports([report], args.json)

    if verb == "kernel":
        quiver = _require_quiver(args)
        dim = _get_dim(args, quiver)
        _get_params(args, quiver)
        if args.r:
            raise ExpressionError("kernel does not take --r: its constraints are functions of r")
        if args.lam:
            raise ExpressionError("kernel does not take --lambda: the character does not depend on it")
        report = kernel_constraint(quiver, dim)
        return _emit_reports([report], args.json)

    raise AssertionError(f"unhandled verb {verb}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (QuiverFormatError, ExpressionError, CompositionError, MismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
