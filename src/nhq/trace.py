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
from .necklace import HH0Element, Necklace
from .quiver import Quiver
from .repspace import (
    Character,
    GlElement,
    PolyElement,
    WeylElement,
    _contract_letters,
    _times_token,
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
from .rings import HBarPolynomial
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
    out = PolyElement(quiver, dim)
    for necklace, coeff in x.items():
        c0 = coeff.constant_term()
        if c0 == 0:
            continue
        if necklace.is_idempotent:
            out = out + PolyElement.constant(quiver, dim, c0 * dim[necklace.vertex])
            continue
        word = tuple((letter, t) for t, letter in enumerate(necklace.letters))
        out = out + _contract_letters(quiver, dim, (word,), False).scale(c0)
    return out


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
    (``repspace._contract_letters``); the coefficient-weighted traces are
    accumulated into a single term dict, leaving the cached traces intact.
    """
    quiver = x.quiver
    dim = make_dimension_vector(quiver, dim)
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


def verify_trace_homomorphism(x: QPAElement, y: QPAElement, dim, name="trace-hom") -> VerificationReport:
    """Check Tr_q(x * y) = Tr_q(x) Tr_q(y) exactly."""
    lhs = trace_quantum(qpa_mul(x, y), dim)
    rhs = weyl_mul(trace_quantum(x, dim), trace_quantum(y, dim))
    res = lhs - rhs
    if res.is_zero():
        return VerificationReport(name, "verified")
    return VerificationReport(name, "failed", residual=format_element(res))


def verify_cubic(x: HH0Element, y: HH0Element, dim, name="cubic") -> VerificationReport:
    """The pre-reduction square: quantum-commutator over h against Poisson.

    Computes C = [Tr_q(lift x), Tr_q(lift y)], insists C is divisible by h
    (a Rees-grading fact, so a hard failure otherwise), and compares the
    classical symbol of -C/h with {Tr x, Tr y}.
    """
    tx = trace_quantum(lift_necklace_combination(x), dim)
    ty = trace_quantum(lift_necklace_combination(y), dim)
    comm = weyl_commutator(tx, ty)
    if not comm.is_divisible_by_h():
        return VerificationReport(
            name, "failed", residual=format_element(comm),
            notes=("commutator is not divisible by h",),
        )
    lhs = classical_symbol(-comm.div_h())
    rhs = poisson(trace_classical(x, dim), trace_classical(y, dim))
    res = lhs - rhs
    if res.is_zero():
        return VerificationReport(name, "verified")
    return VerificationReport(name, "failed", residual=format_element(res))


def lift_necklace_combination(x: HH0Element) -> QPAElement:
    """Embed an HH0 element into the quantum path algebra degree-one part."""
    sym = SymElement(x.quiver, {(necklace,): coeff for necklace, coeff in x.items()})
    return lift(sym)


def verify_quantum_moment(quiver: Quiver, dim, r=None, name="qmoment") -> VerificationReport:
    """tr of the moment matrix equals -tau + h chi, chi the 'main' character
    c_i = -(weighted out-degree of i) + r_i."""
    dim = tuple(dim)
    chi = chi_sign_variants(quiver, dim, r)["main"].values
    failures = []
    for (i, p, q) in gl_basis(quiver, dim):
        e = GlElement.elementary(quiver, dim, i, p, q)
        lhs = quantum_moment(quiver, dim, e, r)
        rhs = -tau(quiver, dim, e)
        if p == q and chi[i]:
            rhs = rhs + WeylElement.constant(quiver, dim, HBarPolynomial((0, chi[i])))
        res = lhs - rhs
        if not res.is_zero():
            failures.append(((i, p, q), res))
    if not failures:
        return VerificationReport(name, "verified")
    (key, res) = failures[0]
    return VerificationReport(
        name,
        "failed",
        residual=format_element(res),
        notes=(f"first failing basis element e^{key[0]}_{{{key[1]},{key[2]}}}",),
    )


def verify_equivariance(v: GlElement, x: QPAElement, dim, name="invariance") -> VerificationReport:
    """[tau(v), Tr_q(x)] = 0: quantum traces are gl-invariant."""
    res = weyl_commutator(tau(x.quiver, dim, v), trace_quantum(x, dim))
    if res.is_zero():
        return VerificationReport(name, "verified")
    return VerificationReport(name, "failed", residual=format_element(res))


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
    entries.  ``re_expand(c)`` is the affine expansion + c h Tr_q(p), so the
    exact ratio solve for ``chi_value`` already checks target ==
    re_expand(chi_value): ``verified`` is the ratio check.  Re-expanding
    through ``weyl_mul`` and ``tau`` and comparing is kept as a test oracle
    in ``tests/test_reduction_oracles.py``.
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
        if self.verified:
            return VerificationReport(name, "verified")
        return VerificationReport(
            name,
            "failed",
            residual=format_element(self.target - self.re_expand()),
        )


def _solve_scalar_ratio(lhs: WeylElement, rhs: WeylElement):
    """Find the rational c with lhs = c * rhs, or None when impossible."""
    if rhs.is_zero():
        return Fraction(0) if lhs.is_zero() else None
    mono, coeff = next(iter(sorted(rhs.items(), key=lambda kv: kv[0])))
    k = next(i for i, c in enumerate(coeff.coeffs) if c)
    num = lhs.coefficient(mono).coefficient(k)
    c = num / coeff.coefficient(k)
    if (lhs - rhs.scale(c)).is_zero():
        return c
    return None


def _tau_expansion(quiver: Quiver, dim, vertex: int, entries) -> dict:
    """sum_{l1,l2} M_{l1,l2} tau(-e_{l1,l2}) as a raw term dict.

    Each term sign * x_pos d_der of tau(e_{l1,l2}) (``tau_pairs``) is
    normal ordered, so M x_pos d_der is M times the position token, then
    times the derivative token, both products in place on M's term dict.
    """
    signed = {1: {}, -1: {}}
    for (l_first, l_last), entry in entries:
        for sign, pos, der in tau_pairs(quiver, dim, vertex, l_first, l_last):
            moved: dict = {}
            _times_token(entry.terms, (pos, False), moved)
            _times_token(moved, (der, True), signed[-sign])
    out = signed[1]
    for mono, c in signed[-1].items():
        add_into(out, mono, -c)
    return out


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
    multiplies the entry's term dict in place, and lambda enters once, as
    -lambda Tr_q(p).  The trace character coefficient is the exact ratio of
    target - re_expand(0) to h Tr_q(p); re-expansion is affine in it with
    exactly that slope, so the ratio exists precisely when the re-expansion
    equals the traced generator.
    """
    dim = tuple(dim)
    if params is None:
        params = make_params(quiver)
    word = marked_word(quiver, p, vertex, mark)
    target = trace_quantum(ideal_generator(quiver, p, vertex, mark, params), dim)

    ends = range(1, dim[vertex] + 1)
    if word:
        cycle = tuple((letter, t) for t, letter in enumerate(word))
        entries = _contract_letters(quiver, dim, (cycle,), True, (ends, ends))
    else:
        unit = WeylElement.constant(quiver, dim, 1)
        entries = {(l, l): unit for l in ends}
    entries = sorted(
        ((key, coeff) for key, coeff in entries.items() if coeff), key=lambda kv: kv[0]
    )
    pairs = tuple(
        (coeff, GlElement.elementary(quiver, dim, vertex, l_first, l_last, -1))
        for (l_first, l_last), coeff in entries
    )
    trace_of_p: dict = {}
    for (l_first, l_last), coeff in entries:
        if l_first == l_last:
            for mono, c in coeff.items():
                add_into(trace_of_p, mono, c)
    expansion = _tau_expansion(quiver, dim, vertex, entries)
    lam = params.lam[vertex]
    if lam:
        for mono, c in trace_of_p.items():
            add_into(expansion, mono, c * -lam)
    zero = WeylElement(quiver, dim)
    expansion, trace_of_p = zero._with_terms(expansion), zero._with_terms(trace_of_p)
    chi_value = _solve_scalar_ratio(
        target - expansion, trace_of_p.scale(HBarPolynomial.h())
    )
    return IdealDecomposition(
        quiver, dim, vertex, pairs, expansion, trace_of_p, chi_value, target
    )


def _closed_necklaces(quiver: Quiver, max_len: int):
    """All necklaces of word length at most max_len, in basis order."""
    found = set()

    def extend(word, start_vertex):
        if word and word[-1].source(quiver) == start_vertex:
            from .necklace import canonical_necklace

            found.add(canonical_necklace(quiver, word))
        if len(word) == max_len:
            return
        current = word[-1].source(quiver) if word else start_vertex
        for letter in quiver.letters():
            if letter.target(quiver) == current:
                extend(word + [letter], start_vertex)

    for v in range(len(quiver.vertices)):
        extend([], v)
    from .necklace import necklace_key

    return sorted(found, key=necklace_key)


def enumerate_generators(quiver: Quiver, max_len: int = 2):
    """(necklace, vertex, mark) index of reduction-ideal generators."""
    from .necklace import idempotent_class

    out = []
    for i in range(len(quiver.vertices)):
        out.append((idempotent_class(i), i, 0))
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
    values: dict[int, set] = {i: set() for i in range(len(quiver.vertices))}
    all_verified = True
    for necklace, vertex, mark in enumerate_generators(quiver, max_len):
        dec = decompose_ideal_image(quiver, dim, necklace, vertex, mark, params)
        if not dec.verified:
            all_verified = False
            continue
        values[vertex].add(dec.chi_value)

    names = quiver.vertices
    if not all_verified or any(len(v) != 1 for v in values.values()):
        detail = {
            names[i]: sorted(str(c) for c in v) for i, v in values.items()
        }
        return (
            VerificationReport(
                "solve-chi",
                "failed",
                notes=(f"inconsistent or undetermined character: {detail}",),
            ),
            None,
        )
    solved = Character(quiver, tuple(values[i].pop() for i in range(len(names))))
    variants = chi_sign_variants(quiver, dim, params.r)
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
            "solve-chi",
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
