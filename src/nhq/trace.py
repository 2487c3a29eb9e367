"""Classical and quantum trace maps and the commuting-square checks.

The classical trace sends a necklace to the cyclically contracted product
of its coordinate matrices; the quantum trace sends a height configuration
to the same contraction with the operator factors multiplied in height
order.  Both are one height-ordered contraction (``repspace._contract``),
which sums each index as soon as the last factor using it has been
multiplied; the block matrices of path-algebra and height-configuration
elements are its open-word entries.  Every one of them is a weighted sum
that ``repspace.contracted`` charges and accumulates at once, from the
coded keys and ``int`` numerators of ``linear.int_terms``, whose common
denominator becomes the result's own.  Around them sit the verification
procedures, with the trace characters they solve for: the trace is an
algebra map, the pre- and post-reduction squares commute, the quantum
moment identity holds, and the reduction-ideal generators decompose over
the shifted gl action with a solvable trace character.  A generator's
check is four sums of closed configurations
(``schedler.ideal_normal_forms``): its two straightened parts, its marked
word, and the closed words whose traces are its tau re-expansion.
``decompose_ideal_image`` is its one entry point: it finds the
generator's marked word, and ``repspace.ideal_image`` makes its
``IdealDecomposition`` at one parameter set, tracing the four sums into
packed monomials on a miss, free of (r, lambda), each trace read from the
one trace cache.  That cache keeps the traces of the two straightened
parts and what chi reads of the decomposition under its marked word, but
not the traces of the words, so every parameter set reads the same kept
parts.  This module never sees the packed monomials of a contraction.
All checks are by exact equality; failures carry the residual element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, _in_range
from .expr import format_element, format_hbar
from .linear import int_terms
from .necklace import HH0Element, Necklace, canonical_necklace, idempotent_class, necklace_key
from .quiver import Path, PathAlgebraElement, Quiver, _check_path, _code, _ends
from .repspace import (
    BlockMatrix,
    GlElement,
    PolyElement,
    IdealDecomposition,
    WeylElement,
    classical_symbol,
    clear_trace_cache,
    contracted,
    ideal_image,
    make_dimension_vector,
    moment_block_matrix,
    moment_differences,
    poisson,
    tau,
    tau_kernel,
    weyl_commutator,
    weyl_mul,
)
from .rings import as_fraction
from .schedler import (
    HeightConfiguration,
    QPAElement,
    ReductionParameters,
    lift_necklace_combination,
    marked_word,
    qpa_mul,
)


def trace_classical(x: HH0Element, dim) -> PolyElement:
    """Classical trace: cyclic index contraction of coordinate matrices.

    Each necklace is contracted as its canonical configuration, read at
    h = 0 (the classical side carries no deformation parameter), so an
    idempotent class goes to its block dimension.  The whole sum is charged
    and accumulated at once on the ``int`` numerators of ``x``
    (``repspace.contracted``), and their denominator is the result's.
    """
    dim = make_dimension_vector(x.quiver, dim)
    terms, den = int_terms(lift_necklace_combination(x))
    return contracted(x.quiver, dim, terms.items(), False, den=den)


def trace_quantum_config(quiver: Quiver, dim, components, idempotents) -> WeylElement:
    """Quantum trace of one raw configuration (need not be canonical).

    The dimension vector is validated first (``make_dimension_vector``).
    The packed trace is kept in repspace's bounded cache of traces,
    shared by every caller; ``clear_trace_cache`` empties it.
    """
    dim = make_dimension_vector(quiver, dim)
    cfg = HeightConfiguration(components, idempotents)
    return contracted(quiver, dim, [((cfg.codes, cfg.heights, cfg.idempotents), ((0, 1),))], True)


def trace_quantum(x: QPAElement, dim) -> WeylElement:
    """Quantum trace map, extended Q[h]-linearly over configurations.

    It reads the coded keys and ``int`` numerators of ``x``
    (``linear.int_terms``).  Each configuration's trace is one
    token-by-token contraction, packed and kept in the trace cache; a
    sum's index assignments are added up against ``work.MAX_INDEX_ASSIGNMENTS``
    before any is contracted, and its weighted traces are accumulated into
    one fresh packed element (``repspace.contracted``): numerators over the
    denominator of ``x``, with no ``Fraction`` multiplied.
    """
    dim = make_dimension_vector(x.quiver, dim)
    terms, den = int_terms(x)
    return contracted(x.quiver, dim, terms.items(), True, den=den)


def _open_word(key) -> tuple:
    """A coded path (``PathAlgebraElement``'s key) as the coded
    configuration of one open word, heights in word order; a trivial path
    is the empty word."""
    s = key if type(key) is str else ""
    return (s,), (tuple(range(1, len(s) + 1)),), ()


def path_matrix_entry(quiver: Quiver, dim, path: Path, row: int, col: int) -> PolyElement:
    """The (row, col) coordinate of the matrix-valued function of a path."""
    dim = make_dimension_vector(quiver, dim)
    _check_path(quiver, path)
    rmax, cmax = dim[path.target(quiver)], dim[path.source(quiver)]
    if not (_in_range(row, rmax) and _in_range(col, cmax)):
        raise DimensionError(f"path entry ({row},{col}) out of range for block {rmax}x{cmax}")
    word = _open_word(_code(path.letters))
    return contracted(quiver, dim, [(word, ((0, 1),))], False, ((row,), (col,)))[row, col]


def block_matrix(x, dim, mode: str = "classical") -> BlockMatrix:
    """Matrix-valued function (classical) or operator (quantum) of an element.

    Accepts a PathAlgebraElement homogeneous between two vertices, or (quantum
    mode only) a QPAElement whose terms are single height components; for the
    latter the entry operator products follow the heights.  Both are read
    through their coded keys and ``int`` numerators, and every entry is
    summed at once (``repspace.contracted``); classical entries are read
    at h = 0.
    """
    if mode not in ("classical", "quantum"):
        raise ValueError(f"unknown mode {mode!r}")
    quantum = mode == "quantum"

    if isinstance(x, PathAlgebraElement):
        quiver = x.quiver
        if not x:
            raise ValueError("cannot infer the block of the zero element")
        terms, den = int_terms(x)
        ends = _ends(quiver)  # the (source, target) of each letter code
        endpoints = {(ends[k[-1]][0], ends[k[0]][1]) if type(k) is str else (k, k) for k in terms}
        if len(endpoints) != 1:
            raise ValueError("element is not homogeneous between two vertices")
        (src, dst) = endpoints.pop()
        items = [(_open_word(key), scale) for key, scale in terms.items()]
    elif isinstance(x, QPAElement):
        if not quantum:
            raise ValueError("height configurations only have quantum matrices")
        quiver = x.quiver
        terms, den = int_terms(x)
        if any(len(codes) != 1 or idems for codes, _, idems in terms):
            raise ValueError("quantum matrix needs single-component terms")
        vertices = {_ends(quiver)[codes[0][0]][1] for codes, _, _ in terms}
        if len(vertices) != 1:
            raise ValueError("element is not homogeneous between two vertices")
        src = dst = vertices.pop()
        items = terms.items()
    else:
        raise TypeError(f"cannot form a block matrix of {type(x).__name__}")

    dim = make_dimension_vector(quiver, dim)
    rows, cols = range(1, dim[dst] + 1), range(1, dim[src] + 1)
    block = contracted(quiver, dim, items, quantum, (rows, cols), den=den)
    return BlockMatrix(src, dst, tuple(tuple(block[row, col] for col in cols) for row in rows))


# ---------------------------------------------------------------------------
# Reports


@dataclass
class VerificationReport:
    """Outcome of one identity check, with exact witness data."""

    name: str
    status: str  # verified | failed | solved
    residual: str | None = None
    character: dict | None = None
    constraints: list | None = None
    notes: tuple = ()

    def __post_init__(self):
        if self.status == "verified" and self.residual not in (None, "0"):
            raise ValueError("verified reports must carry a zero residual")

    @property
    def ok(self) -> bool:
        return self.status in ("verified", "solved")

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.residual is not None:
            out["residual"] = self.residual
        if self.character is not None:
            out["character"] = self.character
        if self.constraints is not None:
            out["constraints"] = self.constraints
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_text(self) -> str:
        lines = [f"{self.name}: {self.status}"]
        if self.residual is not None and self.residual != "0":
            lines.append(f"  residual: {self.residual}")
        if self.character is not None:
            body = ", ".join(f"{k}: {v}" for k, v in self.character.items())
            lines.append(f"  character: {body}")
        for constraint in self.constraints or ():
            lines.append(f"  constraint: {constraint}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def compare_report(name: str, pairs) -> VerificationReport:
    """Verified when ``lhs == rhs`` for each ``(note, lhs, rhs)`` of ``pairs``.

    ``pairs`` is drawn lazily and the first unequal pair ends the check: only
    then is ``lhs - rhs`` formed, as the failed report's residual, with the
    note (if any) saying where it arose.
    """
    for note, lhs, rhs in pairs:
        if lhs != rhs:
            return VerificationReport(
                name, "failed", residual=format_element(lhs - rhs),
                notes=(note,) if note else (),
            )
    return VerificationReport(name, "verified")


def over_h(note, comm, sides) -> tuple:
    """The ``(note, lhs, rhs)`` pair of a check on ``comm / h``.

    ``sides(comm / h)`` gives its two sides.  When h does not divide
    ``comm`` (a Rees-grading fact, so a hard failure), ``comm`` itself is
    compared with zero and the note says so.
    """
    if comm.is_divisible_by_h():
        return (note, *sides(comm.div_h()))
    why = "commutator is not divisible by h"
    return (f"{note}: {why}" if note else why, comm, comm.scale(0))


def verify_trace_homomorphism(x: QPAElement, y: QPAElement, dim, name="trace-hom") -> VerificationReport:
    """Check Tr_q(x * y) = Tr_q(x) Tr_q(y) exactly."""
    lhs = trace_quantum(qpa_mul(x, y), dim)
    rhs = weyl_mul(trace_quantum(x, dim), trace_quantum(y, dim))
    return compare_report(name, [(None, lhs, rhs)])


def verify_cubic(x: HH0Element, y: HH0Element, dim, name="cubic") -> VerificationReport:
    """The pre-reduction square: quantum-commutator over h against Poisson.

    Computes C = [Tr_q(lift x), Tr_q(lift y)], insists C is divisible by h,
    and compares the classical symbol of -C/h with {Tr x, Tr y}.
    """
    tx = trace_quantum(lift_necklace_combination(x), dim)
    ty = trace_quantum(lift_necklace_combination(y), dim)
    pair = over_h(
        None,
        weyl_commutator(tx, ty),
        lambda c: (classical_symbol(-c), poisson(trace_classical(x, dim), trace_classical(y, dim))),
    )
    return compare_report(name, [pair])


def verify_quantum_moment(quiver: Quiver, dim, r=None, name="qmoment") -> VerificationReport:
    """tr of the moment matrix against each gl basis element e^i_{p,q}, the
    (q, p) entry of block i, equals -tau + h chi, chi the 'main' character
    c_i = -(weighted out-degree of i) + r_i.  The blocks are formed once,
    and ``repspace.moment_differences`` compares each entry with its
    right-hand side, yielding only the pairs that differ."""
    dim = make_dimension_vector(quiver, dim)
    chi = chi_sign_variants(quiver, dim, r)["main"].values
    differences = moment_differences(quiver, dim, moment_block_matrix(quiver, dim, r), chi)
    return compare_report(
        name, ((f"first failing basis element e^{i}_{{{p},{q}}}", lhs, rhs) for i, p, q, lhs, rhs in differences)
    )


def verify_equivariance(v: GlElement, x: QPAElement, dim, name="invariance") -> VerificationReport:
    """[tau(v), Tr_q(x)] = 0: quantum traces are gl-invariant."""
    comm = weyl_commutator(tau(x.quiver, dim, v), trace_quantum(x, dim))
    return compare_report(name, [(None, comm, comm.scale(0))])


# ---------------------------------------------------------------------------
# The reduction-ideal decomposition and the trace character


@dataclass(frozen=True)
class Character:
    """A functional sum_k c_k tr_k on gl_d."""

    quiver: Quiver
    values: tuple[Fraction, ...]

    def evaluate(self, v: GlElement) -> Fraction:
        total = Fraction(0)
        for (i, p, q), c in v.items():
            if p == q:
                total += self.values[i] * c
        return total

    def __str__(self) -> str:
        names = self.quiver.vertices
        return " + ".join(f"({c})*tr_{names[i]}" for i, c in enumerate(self.values))


def _out_degree_weight(quiver: Quiver, dim, k: int) -> int:
    return sum(dim[a.target] for a in quiver.arrows if a.source == k)


def chi_sign_variants(quiver: Quiver, dim, r=None) -> dict:
    """The printed sign variants of the character, for reports.

    ``main`` is the displayed closed form, the reduction character
    c_k = -sum_{s(a)=k} d_{t(a)} + r_k; ``statement`` flips the sign of
    the dimension sum; ``proof_line`` distributes the minus over both the
    dimension sum and r (which then picks up the out-degree multiplicity).
    """
    nv = len(quiver.vertices)
    rvec = list(r) if r is not None else [Fraction(0)] * nv
    weights = [_out_degree_weight(quiver, dim, k) for k in range(nv)]
    outdeg = [sum(1 for a in quiver.arrows if a.source == k) for k in range(nv)]
    return {
        "main": Character(
            quiver,
            tuple(Fraction(-weights[k]) + as_fraction(rvec[k]) for k in range(nv)),
        ),
        "statement": Character(
            quiver,
            tuple(Fraction(weights[k]) + as_fraction(rvec[k]) for k in range(nv)),
        ),
        "proof_line": Character(
            quiver,
            tuple(
                Fraction(-weights[k]) - outdeg[k] * as_fraction(rvec[k])
                for k in range(nv)
            ),
        ),
    }


def decompose_ideal_image(
    quiver: Quiver,
    dim,
    p: Necklace,
    vertex: int,
    mark: int = 0,
    params: ReductionParameters | None = None,
) -> IdealDecomposition:
    """Decompose Tr_q of the reduction-ideal generator of (p, marked
    visit) over the gl action at ``params`` (zero by default): the
    ``repspace.IdealDecomposition`` of p's marked word, found once, here,
    bound to the r and lambda of ``params`` at ``vertex``.

    The coefficient of each boundary pair (l_first, l_last) is that entry of
    the operator matrix product of the marked cycle's letters, taken in word
    (= height) order; its direction is -e_{l_first, l_last} at the marked
    vertex.  Their sum of entry * tau(direction) is the trace of closed
    words, the marked word followed by a moment pair.  Re-expansion is
    affine in chi with slope h Tr_q(p) and lambda enters once, as -lambda
    Tr_q(p), so target == re_expand(chi) is two exact comparisons, one per
    Rees grade, and chi is read off at one monomial of Tr_q(p).  The parts
    are kept in the trace cache free of (r, lambda), so a repeated
    generator, at any parameters, straightens, charges and contracts
    nothing.  Nothing is unpacked unless a caller reads an element of the
    result.
    """
    dim = make_dimension_vector(quiver, dim)
    bound = (params.r[vertex], params.lam[vertex]) if params else ()
    return ideal_image(quiver, dim, vertex, marked_word(quiver, p, vertex, mark), *bound)


def _closed_necklaces(quiver: Quiver, max_len: int):
    """All necklaces of word length at most max_len, in basis order."""
    found = set()

    def extend(word, start_vertex):
        if word and word[-1].source(quiver) == start_vertex:
            found.add(canonical_necklace(quiver, word))
        if len(word) == max_len:
            return
        current = word[-1].source(quiver) if word else start_vertex
        for letter in quiver.letters():
            if letter.target(quiver) == current:
                extend(word + [letter], start_vertex)

    for v in range(len(quiver.vertices)):
        extend([], v)
    return sorted(found, key=necklace_key)


def enumerate_generators(quiver: Quiver, max_len: int = 2):
    """(necklace, vertex, mark) index of reduction-ideal generators."""
    out = [(idempotent_class(i), i, 0) for i in range(len(quiver.vertices))]
    for necklace in _closed_necklaces(quiver, max_len):
        for mark, letter in enumerate(necklace.letters):
            out.append((necklace, letter.source(quiver), mark))
    return out


def solve_chi(
    quiver: Quiver, dim, params: ReductionParameters | None = None, max_len: int = 2
) -> tuple[VerificationReport, Character | None]:
    """Solve for the unique trace character over all short generators.

    Every generator with cycle length at most ``max_len`` is decomposed; one
    that does not verify (no ratio solves it) fails the solve, and the
    values at each vertex must agree.  The solved character is compared
    against the printed closed forms (all sign variants).  It is affine in
    r with unit slope and independent of lambda (see ``kernel_constraint``).
    """
    dim = make_dimension_vector(quiver, dim)
    decompositions = (
        decompose_ideal_image(quiver, dim, *generator, params)
        for generator in enumerate_generators(quiver, max_len)
    )
    return solve_chi_from(quiver, dim, None if params is None else params.r, decompositions)


def solve_chi_from(
    quiver: Quiver, dim, r, decompositions, name="solve-chi"
) -> tuple[VerificationReport, Character | None]:
    """The trace character that ``solve_chi`` reads off ``decompositions``,
    the generators' decompositions at order-h weights ``r`` (zero when
    None)."""
    values: dict[int, set] = {i: set() for i in range(len(quiver.vertices))}
    all_verified = True
    for dec in decompositions:
        if not dec.verified:
            all_verified = False
            continue
        values[dec.vertex].add(dec.chi_value)

    names = quiver.vertices
    if not all_verified or any(len(v) != 1 for v in values.values()):
        detail = {names[i]: sorted(map(format_hbar, v)) for i, v in values.items()}
        note = f"inconsistent or undetermined character: {detail}"
        return VerificationReport(name, "failed", notes=(note,)), None
    solved = Character(quiver, tuple(values[i].pop() for i in range(len(names))))
    notes = []
    for label, variant in chi_sign_variants(quiver, dim, r).items():
        if variant.values == solved.values:
            notes.append(f"matches closed form '{label}'")
        else:
            body = ", ".join(f"{names[i]}: {format_hbar(c)}" for i, c in enumerate(variant.values))
            notes.append(f"differs from closed form '{label}' ({body})")
    character = {names[i]: format_hbar(c) for i, c in enumerate(solved.values)}
    return VerificationReport(name, "solved", character=character, notes=tuple(notes)), solved


def _format_constraint(quiver: Quiver, constant: Fraction, r_coeffs) -> str:
    pieces = [str(constant)]
    for i, c in enumerate(r_coeffs):
        if c == 0:
            continue
        name = f"r_{quiver.vertices[i]}"
        if c == 1:
            pieces.append(f"+ {name}")
        elif c == -1:
            pieces.append(f"- {name}")
        elif c > 0:
            pieces.append(f"+ {c}*{name}")
        else:
            pieces.append(f"- {-c}*{name}")
    return " ".join(pieces) + " = 0"


def kernel_constraint(quiver: Quiver, dim) -> VerificationReport:
    """Constraints on r from requiring the solved character to kill ker tau.

    The character is solved once, at r = lambda = 0.  A generator carries
    (-lambda_v + h r_v) p, so its traced residual gains h r_v Tr_q(p): the
    lambda term cancels against the re-expansion and c_v(r) = c_v(0) + r_v
    exactly.  Each kernel basis vector then yields one affine-linear
    constraint on r.  Re-solving at unit r_k and comparing is kept as a
    test oracle in ``tests/test_reduction_oracles.py``.
    """
    dim = make_dimension_vector(quiver, dim)
    nv = len(quiver.vertices)
    base_report, base = solve_chi(quiver, dim)
    if base is None:
        return base_report
    notes = list(base_report.notes)
    kernel = tau_kernel(quiver, dim)
    constraints = []
    for vec in kernel:
        block_traces = [
            sum((c for (i, p, q), c in vec.items() if i == k and p == q), Fraction(0))
            for k in range(nv)
        ]
        constraints.append(_format_constraint(quiver, base.evaluate(vec), block_traces))
    from .sampling import a3p

    if quiver == a3p() and dim == (2, 2, 2, 1):
        notes.append(
            "reference constraint printed in the source example: "
            "14 + 4*r_0 + 2*r_1 + 2*r_2 = 0 "
            "(not independently derivable from the stated data; compare above)"
        )
    return VerificationReport(
        "kernel",
        "solved",
        character=base_report.character,
        constraints=constraints,
        notes=tuple(notes),
    )
