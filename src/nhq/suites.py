"""Seeded verification suites behind the command-line ``verify`` verb.

Each suite runs a number of exact checks and returns one report per case;
identical seeds give identical case streams, so output is reproducible
byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .necklace import double_bracket, necklace_bracket
from .quiver import Letter, Path, PathAlgebraElement, Quiver
from .repspace import (
    GlElement,
    PolyElement,
    WeylElement,
    classical_symbol,
    gauge_act,
    gl_basis,
    path_matrix_entry,
    poisson,
    tau,
    weyl_commutator,
)
from .sampling import (
    a2,
    a3p,
    all_dimension_vectors,
    jordan,
    random_configuration,
    random_dimension,
    random_gl,
    random_hh0,
    random_necklace,
    random_quiver,
    random_sym_element,
    small_quivers,
    two_loop,
)
from .schedler import (
    ReductionParameters,
    lift,
    lift_necklace,
    project,
    qpa_comm,
    qpa_mul,
    straighten,
)
from .trace import (
    VerificationReport,
    decompose_ideal_image,
    enumerate_generators,
    lift_necklace_combination,
    solve_chi,
    verify_cubic,
    verify_equivariance,
    verify_quantum_moment,
    verify_trace_homomorphism,
)


def _report(name: str, ok: bool, residual: str | None = None) -> VerificationReport:
    if ok:
        return VerificationReport(name, "verified")
    return VerificationReport(name, "failed", residual=residual or "nonzero")


def suite_dirac(seed: int, cases: int, quiver: Quiver | None = None) -> list:
    """project((-1/h)[lift x, lift y]) mod h equals the necklace bracket."""
    rng = random.Random(seed)
    reports = []
    for k in range(cases):
        q = quiver if quiver is not None else random_quiver(rng)
        x = random_hh0(rng, q, max_len=5)
        y = random_hh0(rng, q, max_len=5)
        comm = qpa_comm(lift_necklace_combination(x), lift_necklace_combination(y))
        name = f"dirac[{k}]"
        if not comm.is_divisible_by_h():
            reports.append(_report(name, False, "commutator not divisible by h"))
            continue
        lhs = project(comm.div_h().scale(-1)).constant_part()
        rhs = lift_necklace_combination(necklace_bracket(x, y))
        rhs_sym = project(rhs).constant_part()
        reports.append(_report(name, lhs == rhs_sym))
    return reports


def suite_pbw(
    seed: int,
    section_cases: int = 200,
    confluence_cases: int = 100,
    assoc_cases: int = 50,
    quiver: Quiver | None = None,
) -> list:
    """PBW section, rewrite confluence, and associativity of the product."""
    rng = random.Random(seed)
    reports = []
    for k in range(section_cases):
        q = quiver if quiver is not None else random_quiver(rng)
        m = random_sym_element(rng, q)
        reports.append(_report(f"pbw-section[{k}]", project(lift(m)) == m))
    for k in range(confluence_cases):
        q = quiver if quiver is not None else random_quiver(rng)
        cfg = random_configuration(rng, q, max_letters=8)
        results = [
            straighten(q, cfg, strategy=strategy)
            for strategy in ("first", "last", "middle")
        ]
        results.append(straighten(q, cfg, strategy="random", rng=random.Random(seed + k)))
        ok = all(r == results[0] for r in results[1:])
        reports.append(_report(f"pbw-confluence[{k}]", ok))
    for k in range(assoc_cases):
        q = quiver if quiver is not None else random_quiver(rng)
        xs = [lift_necklace(q, random_necklace(rng, q, 4)) for _ in range(3)]
        lhs = qpa_mul(qpa_mul(xs[0], xs[1]), xs[2])
        rhs = qpa_mul(xs[0], qpa_mul(xs[1], xs[2]))
        reports.append(_report(f"pbw-assoc[{k}]", lhs == rhs))
    return reports


def suite_lie(seed: int, cases: int, quiver: Quiver | None = None) -> list:
    """Antisymmetry and the Jacobi identity for the necklace bracket."""
    rng = random.Random(seed)
    reports = []
    for k in range(cases):
        q = quiver if quiver is not None else random_quiver(rng)
        x = random_hh0(rng, q, max_len=5)
        y = random_hh0(rng, q, max_len=5)
        z = random_hh0(rng, q, max_len=5)
        anti = necklace_bracket(x, y) + necklace_bracket(y, x)
        jac = (
            necklace_bracket(x, necklace_bracket(y, z))
            + necklace_bracket(z, necklace_bracket(x, y))
            + necklace_bracket(y, necklace_bracket(z, x))
        )
        reports.append(_report(f"lie[{k}]", anti.is_zero() and jac.is_zero()))
    return reports


def suite_trace_hom(
    seed: int, cases: int, quiver: Quiver | None = None, dim=None
) -> list:
    rng = random.Random(seed)
    reports = []
    for k in range(cases):
        q = quiver if quiver is not None else random_quiver(rng, 2, 2)
        d = dim if dim is not None else random_dimension(rng, q)
        x = lift_necklace(q, random_necklace(rng, q, 4))
        y = lift_necklace(q, random_necklace(rng, q, 4))
        rep = verify_trace_homomorphism(x, y, d, name=f"trace-hom[{k}]")
        reports.append(rep)
    return reports


def suite_cubic(seed: int, cases: int, quiver: Quiver | None = None, dim=None) -> list:
    rng = random.Random(seed)
    reports = []
    for k in range(cases):
        q = quiver if quiver is not None else random_quiver(rng, 2, 2)
        d = dim if dim is not None else random_dimension(rng, q)
        x = random_hh0(rng, q, max_len=4, max_terms=1)
        y = random_hh0(rng, q, max_len=4, max_terms=1)
        reports.append(verify_cubic(x, y, d, name=f"cubic[{k}]"))
    return reports


def suite_qmoment(seed: int, cases: int = 3, quiver: Quiver | None = None, dim=None) -> list:
    """The quantum moment identity on the named quivers (or a given one)."""
    rng = random.Random(seed)
    reports = []
    targets = []
    if quiver is not None:
        dims = [dim] if dim is not None else all_dimension_vectors(quiver, 2)
        targets = [(quiver, d) for d in dims]
    else:
        for q in (jordan(), a2(), a3p()):
            for d in all_dimension_vectors(q, 2):
                targets.append((q, d))
    for idx, (q, d) in enumerate(targets):
        reports.append(verify_quantum_moment(q, d, name=f"qmoment[{idx}]"))
        for j in range(cases):
            r = tuple(Fraction(rng.randint(-3, 3)) for _ in q.vertices)
            reports.append(
                verify_quantum_moment(q, d, r=r, name=f"qmoment[{idx}]r[{j}]")
            )
    return reports


def _orthogonal_lambda(dim) -> tuple:
    """A lambda with sum(lambda_i d_i) = 0; zero when only one vertex."""
    if len(dim) < 2:
        return tuple(Fraction(0) for _ in dim)
    lam = [Fraction(0)] * len(dim)
    lam[0] = Fraction(dim[1])
    lam[1] = Fraction(-dim[0])
    return tuple(lam)


def suite_ideal(
    seed: int,
    quiver: Quiver | None = None,
    dim=None,
    max_len: int = 3,
    params: ReductionParameters | None = None,
) -> list:
    """Decompose every short reduction-ideal generator and solve the character."""
    rng = random.Random(seed)
    reports = []
    if quiver is not None:
        targets = [(quiver, d) for d in ([dim] if dim is not None else all_dimension_vectors(quiver, 2))]
    else:
        targets = [(q, d) for q in (jordan(), a2()) for d in all_dimension_vectors(q, 2)]
    for idx, (q, d) in enumerate(targets):
        nv = len(q.vertices)
        if params is not None:
            param_list = [params]
        else:
            r = tuple(Fraction(rng.randint(-3, 3)) for _ in range(nv))
            zero = (Fraction(0),) * nv
            param_list = [
                ReductionParameters(r, zero),
                ReductionParameters(r, _orthogonal_lambda(d)),
            ]
        for pidx, prm in enumerate(param_list):
            ok = True
            for necklace, vertex, mark in enumerate_generators(q, max_len):
                dec = decompose_ideal_image(q, d, necklace, vertex, mark, prm)
                if dec.chi_value is None:
                    if not (dec.target - dec.re_expand(Fraction(0))).is_zero():
                        ok = False
                elif not dec.verified:
                    ok = False
            reports.append(_report(f"ideal-decompose[{idx}.{pidx}]", ok))
            chi_report, solved = solve_chi(q, d, prm)
            chi_report.name = f"ideal-chi[{idx}.{pidx}]"
            reports.append(chi_report)
    return reports


def suite_invariance(seed: int, cases: int, quiver: Quiver | None = None, dim=None) -> list:
    rng = random.Random(seed)
    reports = []
    for k in range(cases):
        q = quiver if quiver is not None else random_quiver(rng, 2, 2)
        d = dim if dim is not None else random_dimension(rng, q)
        v = random_gl(rng, q, d)
        x = lift_necklace(q, random_necklace(rng, q, 4))
        reports.append(verify_equivariance(v, x, d, name=f"invariance[{k}]"))
    return reports


def _coordinate_vars(quiver: Quiver, dim):
    for ai, arrow in enumerate(quiver.arrows):
        for starred in (False, True):
            rmax = dim[arrow.source] if starred else dim[arrow.target]
            cmax = dim[arrow.target] if starred else dim[arrow.source]
            for row in range(1, rmax + 1):
                for col in range(1, cmax + 1):
                    yield (ai, starred, row, col)


def suite_poisson(quiver: Quiver | None = None, dim=None) -> list:
    """The coordinate bracket agrees with its double-bracket evaluation."""
    reports = []
    targets = (
        [(quiver, d) for d in ([dim] if dim is not None else all_dimension_vectors(quiver, 2))]
        if quiver is not None
        else [(q, d) for q in small_quivers() for d in all_dimension_vectors(q, 2)]
    )
    for idx, (q, d) in enumerate(targets):
        ok = True
        coords = list(_coordinate_vars(q, d))
        for v1 in coords:
            for v2 in coords:
                direct = poisson(
                    PolyElement.coordinate(q, d, *v1),
                    PolyElement.coordinate(q, d, *v2),
                )
                via = _poisson_via_double_bracket(q, d, v1, v2)
                if not (direct - via).is_zero():
                    ok = False
        reports.append(_report(f"poisson[{idx}]", ok))
    return reports


def _poisson_via_double_bracket(quiver: Quiver, dim, v1, v2) -> PolyElement:
    """{(a)_{ij}, (b)_{uv}} evaluated through the double bracket of the letters."""
    a1, s1, i, j = v1
    a2, s2, u, v = v2
    x = PathAlgebraElement.of_path(quiver, Path((Letter(a1, s1),)))
    y = PathAlgebraElement.of_path(quiver, Path((Letter(a2, s2),)))
    out = PolyElement(quiver, dim)
    for (p1, p2), coeff in double_bracket(x, y).items():
        c = coeff.constant_term()
        first = path_matrix_entry(quiver, dim, p1, u, j)
        second = path_matrix_entry(quiver, dim, p2, i, v)
        out = out + (first * second).scale(c)
    return out


def suite_gauge(quiver: Quiver | None = None, dim=None) -> list:
    """gauge_act(i,p,q,-) equals the action induced by tau(e^i_{q,p})."""
    reports = []
    targets = (
        [(quiver, d) for d in ([dim] if dim is not None else all_dimension_vectors(quiver, 2))]
        if quiver is not None
        else [(q, d) for q in (jordan(), a2(), two_loop()) for d in all_dimension_vectors(q, 2)]
    )
    for idx, (q, d) in enumerate(targets):
        ok = True
        for (i, p, qq) in gl_basis(q, d):
            e = GlElement.elementary(q, d, i, qq, p)
            t = tau(q, d, e)
            for var in _coordinate_vars(q, d):
                ai, starred, row, col = var
                f = PolyElement.coordinate(q, d, *var)
                if starred:
                    lifted = WeylElement.derivative(q, d, ai, col, row)
                else:
                    lifted = WeylElement.position(q, d, ai, row, col)
                comm = weyl_commutator(t, lifted)
                if not comm.is_divisible_by_h():
                    ok = False
                    continue
                induced = classical_symbol(comm.div_h())
                direct = gauge_act(q, d, i, p, qq, f)
                if not (induced - direct).is_zero():
                    ok = False
        reports.append(_report(f"gauge[{idx}]", ok))
    return reports


SUITES = {
    "dirac": lambda args: suite_dirac(args["seed"], args["cases"], args.get("quiver")),
    "pbw": lambda args: suite_pbw(args["seed"], quiver=args.get("quiver")),
    "lie": lambda args: suite_lie(args["seed"], args["cases"], args.get("quiver")),
    "trace-hom": lambda args: suite_trace_hom(
        args["seed"], args["cases"], args.get("quiver"), args.get("dim")
    ),
    "cubic": lambda args: suite_cubic(
        args["seed"], args["cases"], args.get("quiver"), args.get("dim")
    ),
    "qmoment": lambda args: suite_qmoment(
        args["seed"], quiver=args.get("quiver"), dim=args.get("dim")
    ),
    "ideal": lambda args: suite_ideal(
        args["seed"],
        quiver=args.get("quiver"),
        dim=args.get("dim"),
        params=args.get("params"),
    ),
    "invariance": lambda args: suite_invariance(
        args["seed"], args["cases"], args.get("quiver"), args.get("dim")
    ),
    "poisson": lambda args: suite_poisson(args.get("quiver"), args.get("dim")),
    "gauge": lambda args: suite_gauge(args.get("quiver"), args.get("dim")),
}

# The optional arguments each suite reads besides the seed and the quiver;
# the command line rejects a flag for any other argument.
SUITE_OPTIONS = {
    "dirac": {"cases"},
    "pbw": set(),
    "lie": {"cases"},
    "trace-hom": {"cases", "dim"},
    "cubic": {"cases", "dim"},
    "qmoment": {"dim"},
    "ideal": {"dim", "params"},
    "invariance": {"cases", "dim"},
    "poisson": {"dim"},
    "gauge": {"dim"},
}
