"""Classical and quantum trace maps and the commuting-square checks.

The classical trace sends a necklace to the cyclically contracted product
of its coordinate matrices; the quantum trace sends a height configuration
to the same contraction with the operator factors multiplied in height
order.  Both are one height-ordered contraction (``repspace._contract``),
which sums each index as soon as the last factor using it has been
multiplied.  Around them sit the verification procedures: the trace is an
algebra map, the pre- and post-reduction squares commute, the quantum
moment identity holds, and the reduction-ideal generators decompose over
the shifted gl action with a solvable trace character.  All checks are by
exact equality; failures carry the residual element.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .expr import format_element
from .linear import add_into
from .necklace import HH0Element, Necklace, canonical_necklace, idempotent_class, necklace_key
from .quiver import Quiver
from .repspace import (
    Character,
    GlElement,
    PolyElement,
    WeylElement,
    _check_assignments,
    _Codec,
    _contract_letters,
    _contract_packed,
    _times,
    chi_sign_variants,
    classical_symbol,
    gl_basis,
    make_dimension_vector,
    poisson,
    quantum_moment,
    tau,
    tau_kernel,
    tau_pairs,
    weyl_commutator,
    weyl_mul,
)
from .rings import ONE, HBarPolynomial
from .schedler import (
    CACHE_SIZE,
    QPAElement,
    ReductionParameters,
    ideal_generator,
    lift,
    make_params,
    marked_word,
    qpa_mul,
    SymElement,
)


def clear_trace_cache() -> None:
    _trace_config.cache_clear()


def trace_classical(x: HH0Element, dim) -> PolyElement:
    """Classical trace: cyclic index contraction of coordinate matrices.

    Idempotent classes go to the block dimension; coefficients are read at
    h = 0 (the classical side carries no deformation parameter).
    """
    quiver = x.quiver
    dim = make_dimension_vector(quiver, dim)
    out = {}
    for necklace, coeff in x.items():
        c0 = coeff.constant_term()
        if c0 == 0:
            continue
        if necklace.is_idempotent:
            add_into(out, (), c0 * dim[necklace.vertex])
            continue
        word = tuple((letter, t) for t, letter in enumerate(necklace.letters))
        for monomial, c in _contract_letters(quiver, dim, (word,), False).items():
            add_into(out, monomial, c * c0)
    return PolyElement(quiver, dim)._with_terms(out)


def trace_quantum_config(quiver: Quiver, dim, components, idempotents) -> WeylElement:
    """Quantum trace of one raw configuration (need not be canonical).

    Results are kept in a bounded LRU cache shared by every caller;
    ``clear_trace_cache`` empties it.  The returned element is shared with
    the cache, so callers must not mutate it.
    """
    return _trace_config(quiver, tuple(dim), tuple(components), tuple(idempotents))


@lru_cache(maxsize=CACHE_SIZE)
def _trace_config(quiver, dim, components, idempotents):
    traced = _contract_letters(quiver, dim, components, True)
    scalar = math.prod(dim[v] for v in idempotents)
    return traced if scalar == 1 else traced.scale(scalar)


def trace_quantum(x: QPAElement, dim) -> WeylElement:
    """Quantum trace map, extended Q[h]-linearly over configurations.

    Each configuration's trace is one token-by-token contraction
    (``repspace._contract_letters``), kept in the trace cache.  One
    configuration with coefficient 1 returns its cached trace itself, so
    the result must not be mutated.  A sum's index assignments are added up
    against ``MAX_INDEX_ASSIGNMENTS`` before any is contracted, and its
    weighted traces are accumulated into one fresh term dict.
    """
    quiver = x.quiver
    dim = make_dimension_vector(quiver, dim)
    if len(x.terms) == 1:  # its contraction checks the budget
        ((cfg, coeff),) = x.items()
        traced = trace_quantum_config(quiver, dim, cfg.components, cfg.idempotents)
        return traced if coeff == ONE else traced.scale(coeff)
    _check_assignments(
        sum(
            math.prod([dim[l.target(quiver)] for comp in cfg.components for l, _ in comp])
            for cfg in x.terms
        )
    )
    out: dict = {}
    for cfg, coeff in x.items():
        traced = trace_quantum_config(quiver, dim, cfg.components, cfg.idempotents)
        for mono, c in traced.items():
            add_into(out, mono, c * coeff)
    return WeylElement(quiver, dim)._with_terms(out)


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


def lift_necklace_combination(x: HH0Element) -> QPAElement:
    """Embed an HH0 element into the quantum path algebra degree-one part."""
    sym = SymElement(x.quiver, {(necklace,): coeff for necklace, coeff in x.items()})
    return lift(sym)


def verify_quantum_moment(quiver: Quiver, dim, r=None, name="qmoment") -> VerificationReport:
    """tr of the moment matrix equals -tau + h chi, chi the 'main' character
    c_i = -(weighted out-degree of i) + r_i."""
    dim = tuple(dim)
    chi = chi_sign_variants(quiver, dim, r)["main"].values

    def pairs():
        for (i, p, q) in gl_basis(quiver, dim):
            e = GlElement.elementary(quiver, dim, i, p, q)
            lhs = quantum_moment(quiver, dim, e, r)
            rhs = -tau(quiver, dim, e)
            if p == q and chi[i]:
                rhs = rhs + WeylElement.constant(quiver, dim, HBarPolynomial((0, chi[i])))
            yield f"first failing basis element e^{i}_{{{p},{q}}}", lhs, rhs

    return compare_report(name, pairs())


def verify_equivariance(v: GlElement, x: QPAElement, dim, name="invariance") -> VerificationReport:
    """[tau(v), Tr_q(x)] = 0: quantum traces are gl-invariant."""
    comm = weyl_commutator(tau(x.quiver, dim, v), trace_quantum(x, dim))
    return compare_report(name, [(None, comm, comm.scale(0))])


# ---------------------------------------------------------------------------
# The reduction-ideal decomposition and the trace character


@dataclass
class IdealDecomposition:
    """Tr_q(generator) written as sum coeff * (tau + lambda tr - h chi)(direction).

    ``pairs`` holds one (entry, direction) pair per nonzero boundary pair
    (l_first, l_last): the entry is that entry of the height-ordered
    operator matrix product of the cycle letters, the direction the negated
    elementary matrix -e_{l_first, l_last}; ``chi_value`` is the solved
    trace-character coefficient at the generator's vertex (None when no
    value of it makes the decomposition exact).

    ``expansion`` is the re-expansion at chi = 0, sum entry * tau(direction)
    - lambda Tr_q(p), and ``trace_of_p`` is Tr_q(p), the sum of the diagonal
    entries.  ``re_expand(c)`` is the affine expansion + c h Tr_q(p).
    ``verified`` means target == re_expand(chi_value); ``chi_value`` is None
    exactly when that comparison fails.  Re-expanding through ``weyl_mul``
    and ``tau`` and comparing is kept as a test oracle in
    ``tests/test_reduction_oracles.py``.
    """

    quiver: Quiver
    dim: tuple
    vertex: int
    pairs: tuple
    expansion: WeylElement
    trace_of_p: WeylElement
    chi_value: Fraction | None
    target: WeylElement

    @property
    def verified(self) -> bool:
        return self.chi_value is not None

    def re_expand(self, chi_value=None) -> WeylElement:
        cv = self.chi_value if chi_value is None else chi_value
        if not cv:
            return self.expansion
        return self.expansion + self.trace_of_p.scale(HBarPolynomial((0, cv)))

    def report(self, name="ideal") -> VerificationReport:
        unequal = () if self.verified else ((None, self.target, self.re_expand()),)
        return compare_report(name, unequal)


def _tau_expansion(quiver: Quiver, dim, vertex: int, codec: _Codec, entries) -> dict:
    """sum_{l1,l2} M_{l1,l2} tau(-e_{l1,l2}) as a packed term dict.

    ``entries`` holds the packed entries M_{l1,l2}.  Each term sign * x_pos
    d_der of tau(e_{l1,l2}) (``tau_pairs``) is normal ordered, so M x_pos
    d_der is M times the position token, then times the derivative token,
    both products in place; ``codec`` is sized for these two products.
    """
    signed = {1: {}, -1: {}}
    for (l_first, l_last), entry in entries:
        for sign, pos, der in tau_pairs(quiver, dim, vertex, l_first, l_last):
            moved: dict = {}
            _times(entry, codec.position(pos), codec.mask, moved)
            _times(moved, codec.derivative(der), codec.mask, signed[-sign])
    out = signed[1]
    for key, c in signed[-1].items():
        add_into(out, key, -c)
    return out


def _boundary_entries(quiver: Quiver, dim, vertex: int, word):
    """The nonzero entries ((l_first, l_last), packed terms) of the operator
    matrix product of ``word``'s letters in word order, sorted by key, and
    their codec, with fields for the arrows of tau at ``vertex`` and sized
    for the two token products of a tau term on top of the word's letters."""
    ends = range(1, dim[vertex] + 1)
    at_vertex = frozenset(
        ai for ai, a in enumerate(quiver.arrows) if vertex in (a.source, a.target)
    )
    if not word:
        return _Codec(quiver, dim, at_vertex, 2, True), [((l, l), {0: 1}) for l in ends]
    cycle = tuple((letter, t) for t, letter in enumerate(word))
    codec, entries = _contract_packed(
        quiver, dim, (cycle,), True, (ends, ends), at_vertex, extra=2
    )
    return codec, sorted((kv for kv in entries.items() if kv[1]), key=lambda kv: kv[0])


def decompose_ideal_image(
    quiver: Quiver,
    dim,
    p: Necklace,
    vertex: int,
    mark: int = 0,
    params: ReductionParameters | None = None,
) -> IdealDecomposition:
    """Decompose Tr_q of a reduction-ideal generator over the gl action.

    The coefficient of each boundary pair (l_first, l_last) is that entry of
    the operator matrix product of the marked cycle's letters, taken in word
    (= height) order; its direction is -e_{l_first, l_last} at the marked
    vertex.  The re-expansion at chi = 0 is built from those entries by
    token products: each normal-ordered term x d of tau(direction)
    multiplies the entry's packed term dict, and lambda enters once, as
    -lambda Tr_q(p).  Re-expansion is affine in chi with slope h Tr_q(p),
    so chi is read at the least monomial of Tr_q(p), one h-degree above its
    first nonzero one, and verified by comparing target with re_expand(chi).
    """
    dim = tuple(dim)
    if params is None:
        params = make_params(quiver)
    word = marked_word(quiver, p, vertex, mark)
    target = trace_quantum(ideal_generator(quiver, p, vertex, mark, params), dim)

    m = len(word)
    codec, entries = _boundary_entries(quiver, dim, vertex, word)
    zero = WeylElement(quiver, dim)
    pairs = tuple(
        (
            zero._with_terms(codec.unpack(terms, m)),
            GlElement.elementary(quiver, dim, vertex, l_first, l_last, -1),
        )
        for (l_first, l_last), terms in entries
    )
    diagonal: dict = {}
    for (l_first, l_last), terms in entries:
        if l_first == l_last:
            for key, c in terms.items():
                diagonal[key] = diagonal.get(key, 0) + c
    trace_of_p = codec.unpack(diagonal, m)
    expansion = codec.unpack(_tau_expansion(quiver, dim, vertex, codec, entries), m + 2)
    lam = params.lam[vertex]
    if lam:
        for mono, c in trace_of_p.items():
            add_into(expansion, mono, c * -lam)
    expansion, trace_of_p = zero._with_terms(expansion), zero._with_terms(trace_of_p)
    chi_value = Fraction(0)
    if trace_of_p:
        mono = min(trace_of_p.terms)
        coeff = trace_of_p.terms[mono]
        k = next(i for i, c in enumerate(coeff.coeffs) if c)
        gap = target.coefficient(mono) - expansion.coefficient(mono)
        chi_value = gap.coefficient(k + 1) / coeff.coefficient(k)
    dec = IdealDecomposition(
        quiver, dim, vertex, pairs, expansion, trace_of_p, chi_value, target
    )
    if target != dec.re_expand():
        dec.chi_value = None
    return dec


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
    dim = tuple(dim)
    if params is None:
        params = make_params(quiver)
    decompositions = (
        decompose_ideal_image(quiver, dim, necklace, vertex, mark, params)
        for necklace, vertex, mark in enumerate_generators(quiver, max_len)
    )
    return solve_chi_from(quiver, dim, params.r, decompositions)


def solve_chi_from(
    quiver: Quiver, dim, r, decompositions, name="solve-chi"
) -> tuple[VerificationReport, Character | None]:
    """The trace character that ``solve_chi`` reads off ``decompositions``,
    the generators' decompositions at order-h weights ``r``."""
    values: dict[int, set] = {i: set() for i in range(len(quiver.vertices))}
    all_verified = True
    for dec in decompositions:
        if not dec.verified:
            all_verified = False
            continue
        values[dec.vertex].add(dec.chi_value)

    names = quiver.vertices
    if not all_verified or any(len(v) != 1 for v in values.values()):
        detail = {
            names[i]: sorted(str(c) for c in v) for i, v in values.items()
        }
        return (
            VerificationReport(
                name,
                "failed",
                notes=(f"inconsistent or undetermined character: {detail}",),
            ),
            None,
        )
    solved = Character(quiver, tuple(values[i].pop() for i in range(len(names))))
    variants = chi_sign_variants(quiver, dim, r)
    notes = []
    for label, variant in variants.items():
        if variant.values == solved.values:
            notes.append(f"matches closed form '{label}'")
        else:
            body = ", ".join(
                f"{names[i]}: {variant.values[i]}" for i in range(len(names))
            )
            notes.append(f"differs from closed form '{label}' ({body})")
    return (
        VerificationReport(
            name,
            "solved",
            character={names[i]: str(solved.values[i]) for i in range(len(names))},
            notes=tuple(notes),
        ),
        solved,
    )


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
    dim = tuple(dim)
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
        constant = sum(
            (base.values[k] * block_traces[k] for k in range(nv)), Fraction(0)
        )
        constraints.append(_format_constraint(quiver, constant, block_traces))
    from .sampling import a3p

    if quiver == a3p() and tuple(dim) == (2, 2, 2, 1):
        notes.append(
            "reference constraint printed in the source example: "
            "14 + 4*r_0 + 2*r_1 + 2*r_2 = 0 "
            "(not independently derivable from the stated data; compare above)"
        )
    return VerificationReport(
        "kernel",
        "solved",
        character={quiver.vertices[i]: str(base.values[i]) for i in range(nv)},
        constraints=constraints,
        notes=tuple(notes),
    )
