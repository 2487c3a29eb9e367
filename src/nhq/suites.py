"""Seeded verification suites behind the command-line ``verify`` verb.

Each suite runs a number of exact checks and returns one report per case;
identical seeds give identical case streams, so output is reproducible
byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import work
from .expr import format_necklace, format_poly
from .necklace import double_bracket, necklace_bracket
from .quiver import Letter, Path, PathAlgebraElement, Quiver
from .repspace import (
    GlElement,
    PolyElement,
    WeylElement,
    classical_symbol,
    gauge_act,
    gl_basis,
    one_layout,
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
    compare_report,
    decompose_ideal_image,
    enumerate_generators,
    lift_necklace_combination,
    over_h,
    path_matrix_entry,
    solve_chi_from,
    verify_cubic,
    verify_equivariance,
    verify_quantum_moment,
    verify_trace_homomorphism,
)


def _targets(quiver: Quiver | None, dim, named) -> list:
    """The (quiver, dim) cases of a suite: ``quiver`` at ``dim``, or at each
    dimension vector up to 2 when no dim is given; without a quiver, each of
    the ``named`` quivers at each dimension vector up to 2."""
    if quiver is None:
        return [(q, d) for q in named for d in all_dimension_vectors(q, 2)]
    dims = [dim] if dim is not None else all_dimension_vectors(quiver, 2)
    return [(quiver, d) for d in dims]


def _drawn_cases(rng, cases: int, quiver: Quiver | None, dim):
    """Index, quiver and dim of each trace case, each drawn from ``rng``
    unless given; a case is drawn when the caller asks for it."""
    for k in range(cases):
        q = quiver if quiver is not None else random_quiver(rng, 2, 2)
        yield k, q, dim if dim is not None else random_dimension(rng, q)


def suite_dirac(seed: int, cases: int, quiver: Quiver | None = None) -> list:
    """project((-1/h)[lift x, lift y]) mod h equals the necklace bracket."""
    rng = random.Random(seed)
    reports = []
    for k in range(cases):
        q = quiver if quiver is not None else random_quiver(rng)
        x = random_hh0(rng, q, max_len=5)
        y = random_hh0(rng, q, max_len=5)
        comm = qpa_comm(lift_necklace_combination(x), lift_necklace_combination(y))
        pair = over_h(None, comm, lambda c: (
            project(c.scale(-1)).constant_part(),
            project(lift_necklace_combination(necklace_bracket(x, y))).constant_part(),
        ))
        reports.append(compare_report(f"dirac[{k}]", [pair]))
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
        reports.append(compare_report(f"pbw-section[{k}]", [(None, project(lift(m)), m)]))
    for k in range(confluence_cases):
        q = quiver if quiver is not None else random_quiver(rng)
        cfg = random_configuration(rng, q, max_letters=8)
        results = [
            straighten(q, cfg, strategy=strategy)
            for strategy in ("first", "last", "middle")
        ]
        results.append(straighten(q, cfg, strategy="random", rng=random.Random(seed + k)))
        pairs = [
            (f"strategy {strategy} against first", r, results[0])
            for strategy, r in zip(("last", "middle", "random"), results[1:])
        ]
        reports.append(compare_report(f"pbw-confluence[{k}]", pairs))
    for k in range(assoc_cases):
        q = quiver if quiver is not None else random_quiver(rng)
        xs = [_lifted_necklace(rng, q) for _ in range(3)]
        lhs = qpa_mul(qpa_mul(xs[0], xs[1]), xs[2])
        rhs = qpa_mul(xs[0], qpa_mul(xs[1], xs[2]))
        reports.append(compare_report(f"pbw-assoc[{k}]", [(None, lhs, rhs)]))
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
        xy = necklace_bracket(x, y)
        jacobi = necklace_bracket(x, necklace_bracket(y, z)) + necklace_bracket(z, xy)
        pairs = [
            ("antisymmetry", xy, -necklace_bracket(y, x)),
            ("Jacobi identity", jacobi, -necklace_bracket(y, necklace_bracket(z, x))),
        ]
        reports.append(compare_report(f"lie[{k}]", pairs))
    return reports


def suite_trace_hom(
    seed: int, cases: int, quiver: Quiver | None = None, dim=None
) -> list:
    rng = random.Random(seed)
    reports = []
    for k, q, d in _drawn_cases(rng, cases, quiver, dim):
        x, y = _lifted_necklace(rng, q), _lifted_necklace(rng, q)
        reports.append(verify_trace_homomorphism(x, y, d, name=f"trace-hom[{k}]"))
    return reports


def _lifted_necklace(rng, quiver: Quiver):
    return lift_necklace(quiver, random_necklace(rng, quiver, 4))


def suite_cubic(seed: int, cases: int, quiver: Quiver | None = None, dim=None) -> list:
    rng = random.Random(seed)
    reports = []
    for k, q, d in _drawn_cases(rng, cases, quiver, dim):
        x = random_hh0(rng, q, max_len=4, max_terms=1)
        y = random_hh0(rng, q, max_len=4, max_terms=1)
        reports.append(verify_cubic(x, y, d, name=f"cubic[{k}]"))
    return reports


def suite_qmoment(seed: int, cases: int = 3, quiver: Quiver | None = None, dim=None) -> list:
    """The quantum moment identity on the named quivers (or a given one)."""
    rng = random.Random(seed)
    reports = []
    for idx, (q, d) in enumerate(_targets(quiver, dim, (jordan(), a2(), a3p()))):
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
    """Decompose every short reduction-ideal generator and solve the character.

    Each generator is decomposed at each parameter set; the trace cache
    keeps its parts free of the parameters, so it is straightened and
    traced once per (quiver, dim).  The character is read from those of
    length at most 2, as ``solve_chi`` reads it."""
    rng = random.Random(seed)
    reports = []
    for idx, (q, d) in enumerate(_targets(quiver, dim, (jordan(), a2()))):
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
        generators = enumerate_generators(q, max(max_len, 2))
        for pidx, prm in enumerate(param_list):
            decompositions = [(generator, decompose_ideal_image(q, d, *generator, prm)) for generator in generators]
            unequal = (
                (_generator_note(q, generator), dec.target, dec.re_expand())
                for generator, dec in decompositions
                if len(generator[0].letters) <= max_len and not dec.verified
            )
            reports.append(compare_report(f"ideal-decompose[{idx}.{pidx}]", unequal))
            short = [dec for generator, dec in decompositions if len(generator[0].letters) <= 2]
            reports.append(solve_chi_from(q, d, prm.r, short, f"ideal-chi[{idx}.{pidx}]")[0])
    return reports


def _generator_note(quiver: Quiver, generator) -> str:
    necklace, vertex, mark = generator
    return (
        f"generator {format_necklace(quiver, necklace)} at vertex "
        f"{quiver.vertices[vertex]}, mark {mark}"
    )


def suite_invariance(seed: int, cases: int, quiver: Quiver | None = None, dim=None) -> list:
    rng = random.Random(seed)
    reports = []
    for k, q, d in _drawn_cases(rng, cases, quiver, dim):
        v = random_gl(rng, q, d)
        reports.append(verify_equivariance(v, _lifted_necklace(rng, q), d, name=f"invariance[{k}]"))
    return reports


def _coordinates(quiver: Quiver, dim) -> list:
    """Each coordinate (ai, starred, row, col) with its function and printed
    name."""
    out = []
    for ai, arrow in enumerate(quiver.arrows):
        for starred in (False, True):
            rmax = dim[arrow.source] if starred else dim[arrow.target]
            cmax = dim[arrow.target] if starred else dim[arrow.source]
            for row in range(1, rmax + 1):
                for col in range(1, cmax + 1):
                    var = (ai, starred, row, col)
                    f = PolyElement.coordinate(quiver, dim, *var)
                    out.append((var, f, format_poly(f)))
    return out


def _charge_pairs(suite: str, pairs: int, what: str) -> None:
    """Refuse a case of ``suite`` that compares more than
    ``work.MAX_SUITE_PAIRS`` ``what``, before anything is built."""
    message = f"the {suite} suite compares {{amount}} {what}, above the limit {{limit}}"
    work.check(pairs, work.MAX_SUITE_PAIRS, message)


def _coordinate_count(quiver: Quiver, dim) -> int:
    """The coordinates (a)_{p,q} and (a')_{p,q} at ``dim``, as
    ``_coordinates`` makes them."""
    return sum([2 * dim[arrow.source] * dim[arrow.target] for arrow in quiver.arrows])


def suite_poisson(quiver: Quiver | None = None, dim=None) -> list:
    """The coordinate bracket agrees with its double-bracket evaluation."""
    return [
        compare_report(f"poisson[{idx}]", _poisson_pairs(q, d))
        for idx, (q, d) in enumerate(_targets(quiver, dim, small_quivers()))
    ]


def _poisson_pairs(quiver: Quiver, dim):
    """Each direct coordinate bracket against its evaluation through the
    double bracket of the two letters, {(a)_{ij}, (b)_{uv}} = sum c
    p1_{uj} p2_{iv} over its terms c p1 (x) p2.  A case charges its
    coordinate pairs first; it then packs the coordinates once into one
    layout (``one_layout``), so no direct bracket re-packs them, and makes
    the double bracket of each letter pair once, and each entry of each
    path once."""
    _charge_pairs("poisson", _coordinate_count(quiver, dim) ** 2, "coordinate pairs")
    coords = _coordinates(quiver, dim)
    functions = one_layout([f for _, f, _ in coords])
    zero, brackets, entries = PolyElement(quiver, dim), {}, {}

    def entry(path, row, col) -> PolyElement:
        found = entries.get((path, row, col))
        if found is None:
            found = entries[path, row, col] = path_matrix_entry(quiver, dim, path, row, col)
        return found

    def terms(a1, s1, a2, s2) -> list:
        found = brackets.get((a1, s1, a2, s2))
        if found is None:
            x, y = (PathAlgebraElement.of_path(quiver, Path((Letter(a, s),))) for a, s in ((a1, s1), (a2, s2)))
            found = brackets[a1, s1, a2, s2] = [(p1, p2, c.constant_term()) for (p1, p2), c in double_bracket(x, y).items()]
        return found

    for ((a1, s1, i, j), _, name1), f1 in zip(coords, functions):
        for ((a2, s2, u, v), _, name2), f2 in zip(coords, functions):
            rhs = zero
            for p1, p2, c in terms(a1, s1, a2, s2):
                rhs = rhs + (entry(p1, u, j) * entry(p2, i, v)).scale(c)
            yield f"{{{name1}, {name2}}}", poisson(f1, f2), rhs


def suite_gauge(quiver: Quiver | None = None, dim=None) -> list:
    """gauge_act(i,p,q,-) equals the action induced by tau(e^i_{q,p})."""
    return [
        compare_report(f"gauge[{idx}]", _gauge_pairs(q, d))
        for idx, (q, d) in enumerate(_targets(quiver, dim, (jordan(), a2(), two_loop())))
    ]


def _gauge_pairs(quiver: Quiver, dim):
    """Per gl basis element and coordinate, the symbol of the tau commutator
    over h against the direct gauge action.  A case charges its pairs
    first; each tau(e) and each lifted coordinate is then made once, and
    all are re-packed once into one layout (``one_layout``), so no
    commutator re-packs an operand."""
    basis = list(gl_basis(quiver, dim))
    _charge_pairs("gauge", len(basis) * _coordinate_count(quiver, dim), "pairs of a gl basis element and a coordinate")
    coords = _coordinates(quiver, dim)
    taus = [tau(quiver, dim, GlElement.elementary(quiver, dim, i, qq, p)) for i, p, qq in basis]
    lifted = [
        WeylElement.derivative(quiver, dim, ai, col, row) if starred else WeylElement.position(quiver, dim, ai, row, col)
        for (ai, starred, row, col), _, _ in coords
    ]
    operators = one_layout(taus + lifted)
    for (i, p, qq), t in zip(basis, operators):
        for (_, f, name), x in zip(coords, operators[len(taus):]):
            yield over_h(
                f"e^{quiver.vertices[i]}_{{{qq},{p}}} on {name}",
                weyl_commutator(t, x),
                lambda c: (classical_symbol(c), gauge_act(quiver, dim, i, p, qq, f)),
            )


class Suite(NamedTuple):
    """A verify suite: its function and the keyword arguments it reads
    besides the quiver.  The command line rejects a flag for any other."""

    function: Callable[..., list]
    options: tuple

    def __call__(self, args: dict) -> list:
        """Run on ``args["quiver"]`` and the options the suite reads."""
        return self.function(
            quiver=args.get("quiver"), **{option: args[option] for option in self.options}
        )


SUITES = {
    "dirac": Suite(suite_dirac, ("seed", "cases")),
    "pbw": Suite(suite_pbw, ("seed",)),
    "lie": Suite(suite_lie, ("seed", "cases")),
    "trace-hom": Suite(suite_trace_hom, ("seed", "cases", "dim")),
    "cubic": Suite(suite_cubic, ("seed", "cases", "dim")),
    "qmoment": Suite(suite_qmoment, ("seed", "dim")),
    "ideal": Suite(suite_ideal, ("seed", "dim", "params")),
    "invariance": Suite(suite_invariance, ("seed", "cases", "dim")),
    "poisson": Suite(suite_poisson, ("dim",)),
    "gauge": Suite(suite_gauge, ("dim",)),
}
