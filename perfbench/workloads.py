"""Seeded inputs and checked operations for the benchmark workloads.

Every input is generated here from the run's seed with this module's own
generator and built through nhq's public constructors (``parse_quiver``,
``canonical_necklace``, ``make_configuration``, ``lift_necklace``, ...), so
a change to ``nhq.sampling`` or ``nhq.suites`` cannot change the load.
Sizes are fixed letter counts, not random budgets.

An ``Op`` is one public call plus its identity check.  ``Op.call`` is the
timed part and returns ``(result, residual)``, ``residual`` being None when
the identity holds.  ``Op.oracle`` is an independent check that runs after
the timer stops, on a deterministic subset of ops that covers every shape
(see ``_stream``).
Every nhq function is looked up on its module at call time, so the layer
wrappers of ``layers.py`` see every call.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import itertools
import json
import os
import random
from fractions import Fraction

import nhq
import nhq.cli
import nhq.expr

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
QUIVER_NAMES = ("jordan", "two_loop", "a2", "a3p")
ORACLE_EVERY = 4


class Op:
    __slots__ = ("kind", "quiver", "dim", "operands", "call", "oracle", "shape")

    def __init__(self, kind, quiver, dim, operands, call, oracle=None):
        self.kind = kind
        self.quiver = quiver
        self.dim = dim
        self.operands = operands
        self.call = call
        self.oracle = oracle
        self.shape = None


def load_quivers() -> dict:
    out = {}
    for name in QUIVER_NAMES:
        with open(os.path.join(DATA, name + ".json"), encoding="utf-8") as fh:
            out[name] = nhq.parse_quiver(fh.read())
    return out


# ---------------------------------------------------------------------------
# Input generation


@functools.lru_cache(maxsize=256)
def _walk_counts(quiver, length):
    """back[s][k][u]: words of k letters whose first letter ends at u and
    whose last letter starts at s (letters compose right to left)."""
    letters = list(quiver.letters())
    nv = len(quiver.vertices)
    back = []
    for s in range(nv):
        table = [[1 if u == s else 0 for u in range(nv)]]
        for _ in range(length):
            prev = table[-1]
            table.append(
                [sum(prev[l.source(quiver)] for l in letters if l.target(quiver) == u) for u in range(nv)]
            )
        back.append(table)
    return back


def closed_word(rng: random.Random, quiver, length: int) -> tuple:
    """A uniformly drawn cyclically composable word of exactly ``length`` letters."""
    letters = list(quiver.letters())
    nv = len(quiver.vertices)
    back = _walk_counts(quiver, length)
    starts = [back[s][length][s] for s in range(nv)]
    s = rng.choices(range(nv), weights=starts)[0]
    word, current = [], s
    for k in range(length, 0, -1):
        options = [l for l in letters if l.target(quiver) == current]
        weights = [back[s][k - 1][l.source(quiver)] for l in options]
        letter = rng.choices(options, weights=weights)[0]
        word.append(letter)
        current = letter.source(quiver)
    return tuple(word)


@functools.lru_cache(maxsize=256)
def reference_letters(quiver, length, variant):
    """Letters of a closed word drawn from the shape alone, not the run seed."""
    shape_rng = random.Random(f"{nhq.serialize_quiver(quiver)}:{length}:{variant}")
    return closed_word(shape_rng, quiver, length)


def word(rng, quiver, length, variant=0) -> tuple:
    """A random closed word made of exactly the letters of a reference word.

    The letter counts fix how many letter pairs contract, which sets most of
    an op's cost, so every seed gets the same counts and only the order of
    the letters varies: a random Eulerian circuit through the letters, each
    letter an edge from its source to its target.
    """
    pool = list(reference_letters(quiver, length, variant))
    rng.shuffle(pool)
    leaving = {}
    for letter in pool:
        leaving.setdefault(letter.source(quiver), []).append(letter)
    stack, out = [(rng.choice(sorted(leaving)), None)], []
    while stack:
        vertex, letter = stack[-1]
        if leaving.get(vertex):
            nxt = leaving[vertex].pop()
            stack.append((nxt.target(quiver), nxt))
        else:
            stack.pop()
            if letter is not None:
                out.append(letter)
    # the circuit comes out last edge first, which is composition order
    return tuple(out)


@functools.lru_cache(maxsize=256)
def necklaces_with(quiver, letters) -> tuple:
    """Every necklace made of exactly these letters, in basis order."""
    counts = collections.Counter(letters)
    chosen = [min(counts)]  # a minimal rotation starts with the least letter
    counts[chosen[0]] -= 1
    found = set()

    def extend():
        if len(chosen) == len(letters):
            if chosen[-1].source(quiver) == chosen[0].target(quiver):
                found.add(nhq.canonical_necklace(quiver, chosen))
            return
        for letter in sorted(counts):
            if counts[letter] and letter.target(quiver) == chosen[-1].source(quiver):
                counts[letter] -= 1
                chosen.append(letter)
                extend()
                chosen.pop()
                counts[letter] += 1

    extend()
    return tuple(sorted(found, key=nhq.necklace_key))


@functools.lru_cache(maxsize=256)
def necklace_groups(quiver, length, at_least=24) -> tuple:
    """The necklaces of a few reference letter sets, one tuple per set: one
    set when it makes ``at_least`` necklaces, more when it does not (a
    multi-vertex quiver has letter sets that close up in few ways)."""
    groups, seen, total = [], set(), 0
    for k in range(12):
        letters = tuple(sorted(reference_letters(quiver, length, ("necklace", k))))
        if letters not in seen:
            seen.add(letters)
            groups.append(necklaces_with(quiver, letters))
            total += len(groups[-1])
        if total >= at_least:
            break
    return tuple(groups)


class Draws(random.Random):
    """The run's seeded generator, plus seeded walks over short necklaces."""

    def __init__(self, seed):
        super().__init__(seed)
        self._walks = {}

    def necklace(self, quiver, length):
        """The next necklace of ``length`` letters.

        The draws of one (quiver, length) take the reference letter sets in
        turn and walk each set's necklaces in a seeded order.  So the letter
        counts of the n-th draw, which set most of an op's cost, and whether
        it repeats an earlier draw, and hits nhq's caches, do not depend on
        the seed; the seed draws only which necklace of the set comes.
        """
        key = (quiver, length)
        if key not in self._walks:
            walks = []
            for group in necklace_groups(quiver, length):
                order = list(group)
                self.shuffle(order)
                walks.append(itertools.cycle(order))
            self._walks[key] = itertools.cycle(walks)
        return next(next(self._walks[key]))


def hh0(quiver, necklace, coeff=1):
    return nhq.HH0Element.of(quiver, necklace, coeff)


def coefficient(rng) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def out_weight(quiver, dim, k) -> int:
    return sum(dim[a.target] for a in quiver.arrows if a.source == k)


def closed_form_chi(quiver, dim, r) -> tuple:
    """c_k = -sum_{s(a)=k} d_{t(a)} + r_k, computed here independently of nhq."""
    return tuple(Fraction(-out_weight(quiver, dim, k)) + r[k] for k in range(len(dim)))


def orthogonal_lambda(rng, dim) -> tuple:
    """A seeded lambda with sum(lambda_i d_i) = 0; zero on one vertex."""
    lam = [Fraction(0)] * len(dim)
    if len(dim) > 1:
        t = rng.choice((-2, -1, 1, 2))
        lam[0], lam[1] = Fraction(t * dim[1]), Fraction(-t * dim[0])
    return tuple(lam)


def generators(quiver, max_len):
    """(necklace, vertex, mark) of every reduction-ideal generator up to max_len."""
    found = set()
    for length in range(1, max_len + 1):
        for word in itertools.product(list(quiver.letters()), repeat=length):
            try:
                found.add(nhq.canonical_necklace(quiver, word))
            except nhq.CompositionError:
                continue
    out = [(nhq.idempotent_class(v), v, 0) for v in range(len(quiver.vertices))]
    for n in sorted(found, key=nhq.necklace_key):
        out.extend((n, l.source(quiver), mark) for mark, l in enumerate(n.letters))
    return out


# ---------------------------------------------------------------------------
# Rendering results for digests and failure records


def render(value, quiver=None) -> str:
    """Stable text of an op result or operand, through nhq's own printers."""
    E = nhq.expr
    if isinstance(value, nhq.HH0Element):
        return E.format_hh0(value)
    if isinstance(value, nhq.QPAElement):
        return E.format_qpa(value)
    if isinstance(value, nhq.WeylElement):
        return E.format_weyl(value)
    if isinstance(value, nhq.PolyElement):
        return E.format_poly(value)
    if isinstance(value, nhq.SymElement):
        return E.format_sym(value)
    if isinstance(value, nhq.HeightConfiguration):
        return E.format_config(quiver, value)
    if isinstance(value, nhq.Necklace):
        return E.format_necklace(quiver, value)
    if isinstance(value, nhq.VerificationReport):
        # Notes are annotations (closed-form comparisons, references) and stay
        # out of the digest; the golden CLI text covers them byte for byte.
        d = value.to_dict()
        d.pop("notes", None)
        return json.dumps(d, sort_keys=True)
    if isinstance(value, nhq.GlElement):
        return " + ".join(f"{c}*e^{i}_{{{p},{q}}}" for (i, p, q), c in sorted(value.items())) or "0"
    if isinstance(value, nhq.ReductionParameters):
        return f"r={render(value.r)} lambda={render(value.lam)}"
    if isinstance(value, (list, tuple)):
        return "[" + "; ".join(render(v, quiver) for v in value) + "]"
    return str(value)


def _residual(element):
    return None if element.is_zero() else render(element)


# ---------------------------------------------------------------------------
# Oracles independent of the kernels that later changes replace


def brute_force_trace(quiver, dim, cfg):
    """Tr_q of one configuration: enumerate every index assignment and
    multiply the operator tokens in height order, using only the public
    ``weyl_mul`` and ``WeylElement.operator_token``."""
    W = nhq.WeylElement
    positions = [(ci, pi) for ci, comp in enumerate(cfg.components) for pi in range(len(comp))]
    by_height = sorted(positions, key=lambda cp: cfg.components[cp[0]][cp[1]][1])
    ranges = [range(1, dim[cfg.components[ci][pi][0].target(quiver)] + 1) for ci, pi in positions]
    slot = {cp: k for k, cp in enumerate(positions)}
    total = W(quiver, dim)
    for ks in itertools.product(*ranges):
        acc = W.constant(quiver, dim, 1)
        for ci, pi in by_height:
            comp = cfg.components[ci]
            letter = comp[pi][0]
            row = ks[slot[(ci, pi)]]
            col = ks[slot[(ci, (pi + 1) % len(comp))]]
            acc = nhq.weyl_mul(acc, W.operator_token(quiver, dim, letter, row, col))
        total = total + acc
    scalar = 1
    for v in cfg.idempotents:
        scalar *= dim[v]
    return total.scale(scalar)


# ---------------------------------------------------------------------------
# Golden command lines, run in-process through nhq.cli.main


def cli_command(argv, golden):
    """An op that runs one CLI command and compares stdout with the golden
    text recorded under the command line; quiver files live in ``data/``."""
    key = " ".join(argv)
    expected = golden.get(key)
    args = [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = nhq.cli.main(list(args))
        text = f"exit {code}\n{out.getvalue()}"
        if expected is None:
            return text, f"no golden output recorded for: {key}"
        return text, None if text == expected else f"golden mismatch for: {key}"

    return Op("cli", None, None, (key,), call)


CLI = {
    "necklace": [
        ["bracket", "-q", "jordan.json", "[x.x.x']", "[x'.x'.x]"],
        ["bracket", "-q", "a3p.json", "[p'.a0'.a1'.a2'.p]", "[a2'.a2] + 2*[a0.a0']"],
    ],
    "pbw": [
        ["qmul", "-q", "jordan.json", "(x',1)", "(x,1)"],
        ["qcomm", "-q", "a3p.json", "(a0',1)(a1',2)(a2',3)", "(a2',1)(a2,2)"],
        ["qmul", "-q", "two_loop.json", "(x,1)(y,2)(x',3)", "(y',1)(x,2)"],
    ],
    "qtrace": [
        ["qtrace", "-q", "two_loop.json", "--dim", "v=2", "(x,1)(y,2)(x',3)(y',4)"],
        ["verify", "cubic", "-q", "a3p.json", "--dim", "0=2,1=2,2=2,inf=1",
         "--cases", "3", "--seed", "7", "--json"],
    ],
    "reduction": [
        ["kernel", "-q", "a3p.json", "--dim", "0=1,1=2,2=2,inf=1", "--json"],
        ["solve-chi", "-q", "a2.json", "--dim", "1=2,2=3", "--r", "1=1,2=-2", "--json"],
        ["verify", "qmoment", "-q", "jordan.json", "--dim", "v=2", "--seed", "3", "--json"],
    ],
}


# ---------------------------------------------------------------------------
# necklace: the classical Lie side


def op_lie_triple(rng, q, length):
    """Antisymmetry and Jacobi for three necklaces, and the first bracket
    against the double-bracket route {pi p, pi q} = pi(mult {{p, q}})."""
    words = [rng.necklace(q, length).letters for _ in range(3)]
    coeffs = [coefficient(rng) for _ in words]
    x, y, z = (hh0(q, nhq.canonical_necklace(q, w), c) for w, c in zip(words, coeffs))
    p, r = (nhq.PathAlgebraElement.of_path(q, nhq.make_path(q, w), c) for w, c in zip(words[:2], coeffs))
    br = lambda a, b: nhq.necklace_bracket(a, b)

    def call():
        xy = br(x, y)
        anti = xy + br(y, x)
        jac = br(x, br(y, z)) + br(z, xy) + br(y, br(z, x))
        via = nhq.natural_projection(nhq.double_bracket(p, r).mult())
        return xy, _residual(anti) or _residual(jac) or _residual(via - xy)

    return Op("lie_triple", q, None, (x, y, z), call)


def contraction_total(a, b) -> int:
    """Sum of {a_i, b_j} over all letter pairs, from letter counts alone."""
    count = lambda w, arrow, starred: sum(1 for l in w if (l.arrow, l.starred) == (arrow, starred))
    arrows = {l.arrow for l in a + b}
    return sum(count(a, k, False) * count(b, k, True) - count(a, k, True) * count(b, k, False) for k in arrows)


def op_long_bracket(rng, q, lx, ly):
    """One bracket of two long words; every term has lx+ly-2 letters and the
    coefficients add up to the signed count of contracting letter pairs."""
    nx, ny = (nhq.canonical_necklace(q, word(rng, q, n, v)) for v, n in enumerate((lx, ly)))
    x, y = hh0(q, nx), hh0(q, ny)
    total = contraction_total(nx.letters, ny.letters)

    def call():
        xy = nhq.necklace_bracket(x, y)
        if any(len(n) != lx + ly - 2 for n in xy.terms):
            return xy, "a term has the wrong letter count"
        got = sum((c.constant_term() for c in xy.terms.values()), Fraction(0))
        return xy, None if got == total else f"coefficient sum {got} != {total}"

    return Op("long_bracket", q, None, (x, y), call)


def op_jordan_power(q, n):
    """[x^n] against [x'.x']: each of the 2n contractions gives [x^(n-1).x']."""
    x, xs = nhq.Letter(0, False), nhq.Letter(0, True)
    a = hh0(q, nhq.canonical_necklace(q, (x,) * n))
    b = hh0(q, nhq.canonical_necklace(q, (xs, xs)))
    expected = hh0(q, nhq.Necklace(None, (x,) * (n - 1) + (xs,)), 2 * n)

    def call():
        ab = nhq.necklace_bracket(a, b)
        return ab, _residual(ab - expected)

    return Op("jordan_power", q, None, (a, b), call)


# ---------------------------------------------------------------------------
# pbw: skein straightening in the quantum path algebra


def op_straighten(rng, q, lengths, seed, index):
    words = [word(rng, q, n, v) for v, n in enumerate(lengths)]
    heights = list(range(1, sum(lengths) + 1))
    rng.shuffle(heights)
    comps, t = [], 0
    for w in words:
        comps.append(tuple((letter, heights[t + i]) for i, letter in enumerate(w)))
        t += len(w)
    cfg = nhq.make_configuration(q, comps)
    leading = nhq.SymElement.of(q, [nhq.canonical_necklace(q, w) for w in words])

    def call():
        out = nhq.straighten(q, cfg)
        # mod h the normal form is the lifted product of the component necklaces
        return out, _residual(nhq.project(out).constant_part() - leading)

    def oracle(out):
        other = nhq.straighten(q, cfg, strategy="random", rng=random.Random(f"{seed}:{index}"))
        return _residual(other - out)

    return Op("straighten", q, None, (cfg,), call, oracle)


def lifted(rng, q, length):
    return nhq.lift_necklace(q, rng.necklace(q, length))


def op_assoc(rng, q):
    x, y, z = (lifted(rng, q, 4) for _ in range(3))

    def call():
        lhs = nhq.qpa_mul(nhq.qpa_mul(x, y), z)
        return lhs, _residual(lhs - nhq.qpa_mul(x, nhq.qpa_mul(y, z)))

    return Op("assoc", q, None, (x, y, z), call)


def op_dirac(rng, q):
    """project((-1/h)[lift x, lift y]) mod h equals the necklace bracket."""
    nx, ny = rng.necklace(q, 5), rng.necklace(q, 5)
    x, y = nhq.lift_necklace(q, nx), nhq.lift_necklace(q, ny)

    def call():
        comm = nhq.qpa_comm(x, y)
        if not comm.is_divisible_by_h():
            return comm, "commutator is not divisible by h"
        lhs = nhq.project(comm.div_h().scale(-1)).constant_part()
        br = nhq.necklace_bracket(hh0(q, nx), hh0(q, ny))
        rhs = nhq.SymElement(q, {(n,): c for n, c in br.items()}).constant_part()
        return comm, _residual(lhs - rhs)

    return Op("dirac", q, None, (x, y), call)


# ---------------------------------------------------------------------------
# qtrace: quantum traces and the commuting squares


def op_trace(rng, q, dim, length):
    n = rng.necklace(q, length)
    x = nhq.lift_necklace(q, n)

    starred = sum(1 for letter in n.letters if letter.starred)

    def call():
        t = nhq.trace_quantum(x, dim)
        # every term has Rees degree (derivatives plus h power) equal to the
        # number of starred letters; the classical part has only positive
        # coefficients, so it cannot cancel and the degree set is never empty
        degrees = t.rees_degrees()
        return t, None if degrees == {starred} else f"Rees degrees {sorted(degrees)} != [{starred}]"

    def oracle(t):
        (cfg,) = x.terms
        res = _residual(brute_force_trace(q, dim, cfg) - t)
        # at h = 0 the quantum trace is the classical one
        return res or _residual(nhq.classical_symbol(t) - nhq.trace_classical(hh0(q, n), dim))

    return Op("trace", q, dim, (x,), call, oracle)


def _report_op(kind, q, dim, operands, check):
    def call():
        rep = check()
        return rep, None if rep.ok else (rep.residual or "; ".join(rep.notes) or rep.status)

    return Op(kind, q, dim, operands, call)


def op_cubic(rng, q, dim, lx, ly):
    x = hh0(q, rng.necklace(q, lx), coefficient(rng))
    y = hh0(q, rng.necklace(q, ly), coefficient(rng))
    return _report_op("cubic", q, dim, (x, y), lambda: nhq.verify_cubic(x, y, dim))


def op_trace_hom(rng, q, dim):
    x, y = lifted(rng, q, 3), lifted(rng, q, 3)
    return _report_op("trace_hom", q, dim, (x, y), lambda: nhq.verify_trace_homomorphism(x, y, dim))


def op_equivariance(rng, q, dim):
    x = lifted(rng, q, 4)
    terms = {}
    for _ in range(2):
        i = rng.randrange(len(dim))
        terms[(i, rng.randint(1, dim[i]), rng.randint(1, dim[i]))] = coefficient(rng)
    v = nhq.GlElement(q, dim, terms)
    return _report_op("equivariance", q, dim, (v, x), lambda: nhq.verify_equivariance(v, x, dim))


# ---------------------------------------------------------------------------
# reduction: the gl action, the ideal decomposition and the character


def params_for(rng, dim):
    r = tuple(Fraction(rng.randint(-3, 3)) for _ in dim)
    return nhq.ReductionParameters(r, orthogonal_lambda(rng, dim))


def op_decompose(rng, q, dim, gens):
    necklace, vertex, mark = next(gens)
    prm = params_for(rng, dim)
    expected = closed_form_chi(q, dim, prm.r)[vertex]

    def call():
        dec = nhq.decompose_ideal_image(q, dim, necklace, vertex, mark, prm)
        if dec.chi_value is None:
            return dec.target, _residual(dec.target - dec.re_expand(Fraction(0)))
        if not dec.verified:
            return dec.target, _residual(dec.target - dec.re_expand())
        if dec.chi_value != expected:
            return dec.target, f"chi {dec.chi_value} != closed form {expected}"
        return dec.target, None

    return Op("decompose", q, dim, (necklace, vertex, mark, prm), call)


def _character_residual(rep, q, expected):
    if rep.status != "solved":
        return f"status {rep.status}: {list(rep.notes)}"
    want = {q.vertices[i]: str(c) for i, c in enumerate(expected)}
    return None if rep.character == want else f"character {rep.character} != closed form {want}"


def op_solve_chi(rng, q, dim):
    prm = params_for(rng, dim)
    expected = closed_form_chi(q, dim, prm.r)

    def call():
        rep, _ = nhq.solve_chi(q, dim, prm)
        return rep, _character_residual(rep, q, expected)

    return Op("solve_chi", q, dim, (prm,), call)


def op_kernel(q, dim):
    expected = closed_form_chi(q, dim, (Fraction(0),) * len(dim))

    def call():
        rep = nhq.kernel_constraint(q, dim)
        res = _character_residual(rep, q, expected)
        if res is None and len(rep.constraints) != 1:
            res = f"expected one constraint, got {rep.constraints}"
        return rep, res

    return Op("kernel", q, dim, (), call)


def op_qmoment(rng, q, dim):
    r = tuple(Fraction(rng.randint(-3, 3)) for _ in dim)
    return _report_op("qmoment", q, dim, (r,), lambda: nhq.verify_quantum_moment(q, dim, r))


def op_tau_kernel(rng, q):
    dim = tuple(rng.randint(1, 3) for _ in q.vertices)

    def call():
        ker = nhq.tau_kernel(q, dim)
        bad = [v for v in ker if not nhq.tau(q, dim, v).is_zero()]
        # the quiver is connected, so the kernel is the line of scalars
        if bad or len(ker) != 1:
            return ker, f"kernel of dimension {len(ker)} with {len(bad)} vectors outside it"
        return ker, None

    return Op("tau_kernel", q, dim, (), call)


# ---------------------------------------------------------------------------
# Workload assembly
#
# A run is a sequence of short rounds (about a second each).  Each op kind
# takes its shapes (quiver, sizes, dimension vector) in turn from a fixed
# grid, a fixed number per round; the seed draws only the words, heights
# and parameters.  So every seed runs the same mix of shapes, and a run
# that ends on a round boundary has measured whole rounds.  The mix puts
# the median op inside one cluster of similar ops and leaves more than a
# tenth of the ops in the heaviest cluster, so p50 and p90 do not sit on a
# gap between clusters.

QUIVERS3 = [("jordan",), ("two_loop",), ("a3p",)]
LIE_SHAPES = list(itertools.product(("jordan", "two_loop", "a3p"), (7, 8)))
# two Jordan brackets a round, the dearest ops here, keep p90 inside one shape
LONG_SHAPES = [(q, L) for L in ((40, 60), (50, 50), (60, 40)) for q in ("jordan", "jordan", "two_loop", "a3p")]
POWERS = [(n,) for n in (100, 125, 150, 175, 200)]
# Jordan configurations above ten letters have a cost tail (a coefficient
# of variation near 0.6 at one shape) that made the workload unsteady.
STRAIGHTEN_SHAPES = [("jordan", (10,)), ("jordan", (5, 5))] + list(
    itertools.product(("two_loop", "a3p"), ((10,), (11,), (12,), (5, 5), (5, 6), (6, 6)))
)
TRACE_SHAPES = [
    ("two_loop", (2,), 7),
    ("two_loop", (2,), 8),
    ("two_loop", (3,), 5),
    ("two_loop", (3,), 6),
    ("jordan", (3,), 5),
    ("jordan", (3,), 6),
    ("a3p", (2, 2, 2, 2), 7),
    ("a3p", (2, 2, 2, 2), 8),
]
CUBIC_SHAPES = [(s, L) for L in ((2, 3), (3, 2), (3, 3)) for s in (("a3p", (2, 2, 2, 1)), ("two_loop", (2,)))]
HOM_SHAPES = [("two_loop", (2,)), ("a3p", (2, 2, 2, 1))]
EQUIVARIANCE_SHAPES = [("two_loop", (2,)), ("a3p", (2, 2, 2, 1)), ("jordan", (3,))]
DECOMPOSE_SHAPES = [
    ("jordan", (2,)),
    ("a2", (2, 3)),
    ("jordan", (3,)),
    ("a2", (3, 3)),
    ("two_loop", (2,)),
    ("a2", (3, 2)),
]
# two_loop has 97 generators up to length 3 and 25 up to length 2
DECOMPOSE_MAX_LEN = {"jordan": 3, "a2": 3, "two_loop": 2}
CHI_SHAPES = [("jordan", (2,)), ("a2", (2, 3)), ("jordan", (3,)), ("a2", (3, 3)), ("two_loop", (2,))]
KERNEL_DIMS = [((2, 2, 2, 1),), ((1, 2, 2, 1),), ((2, 2, 2, 2),)]
QMOMENT_SHAPES = [("jordan", (3,)), ("a2", (3, 3)), ("two_loop", (2,)), ("a3p", (2, 2, 2, 2)), ("a3p", (2, 3, 2, 1))]


def _stream(make, shapes):
    """Ops of the shapes in turn; the oracle stays on the ops of the first
    pass over the grid and of every ``ORACLE_EVERY``-th pass after it, so
    every shape is checked by it from the first round on."""
    for n, shape in enumerate(itertools.cycle(shapes)):
        op = make(*shape)
        op.shape = shape
        if (n // len(shapes)) % ORACLE_EVERY:
            op.oracle = None
        yield op


def _plan(workload, rng, Q, seed, golden_cli):
    """(op stream, ops per round) of each op kind of a workload."""
    cli = _stream(lambda argv: cli_command(argv, golden_cli), [(argv,) for argv in CLI[workload]])
    if workload == "necklace":
        return [
            (_stream(lambda n, L: op_lie_triple(rng, Q[n], L), LIE_SHAPES), len(LIE_SHAPES)),
            (_stream(lambda n, L: op_long_bracket(rng, Q[n], *L), LONG_SHAPES), 4),
            (_stream(lambda n: op_jordan_power(Q["jordan"], n), POWERS), 1),
            (cli, 1),
        ]
    if workload == "pbw":
        index = itertools.count()
        return [
            (_stream(lambda n, L: op_straighten(rng, Q[n], L, seed, next(index)), STRAIGHTEN_SHAPES),
             len(STRAIGHTEN_SHAPES)),
            (_stream(lambda n: op_assoc(rng, Q[n]), QUIVERS3), 3),
            (_stream(lambda n: op_dirac(rng, Q[n]), QUIVERS3), 6),
            (cli, 3),
        ]
    if workload == "qtrace":
        return [
            (_stream(lambda n, d, L: op_trace(rng, Q[n], d, L), TRACE_SHAPES), len(TRACE_SHAPES)),
            (_stream(lambda s, L: op_cubic(rng, Q[s[0]], s[1], *L), CUBIC_SHAPES), 2),
            (_stream(lambda n, d: op_trace_hom(rng, Q[n], d), HOM_SHAPES), 1),
            (_stream(lambda n, d: op_equivariance(rng, Q[n], d), EQUIVARIANCE_SHAPES), 1),
            (cli, 1),
        ]
    if workload == "reduction":
        # each target walks all its generators in a seeded order
        gens = {}
        for n, _ in DECOMPOSE_SHAPES:
            order = generators(Q[n], DECOMPOSE_MAX_LEN[n])
            rng.shuffle(order)
            gens[n] = itertools.cycle(order)
        return [
            (_stream(lambda n, d: op_decompose(rng, Q[n], d, gens[n]), DECOMPOSE_SHAPES), 2 * len(DECOMPOSE_SHAPES)),
            (_stream(lambda n, d: op_solve_chi(rng, Q[n], d), CHI_SHAPES), 2),
            (_stream(lambda d: op_kernel(Q["a3p"], d), KERNEL_DIMS), 1),
            (_stream(lambda n, d: op_qmoment(rng, Q[n], d), QMOMENT_SHAPES), 2),
            (_stream(lambda: op_tau_kernel(rng, Q["a3p"]), [()]), 1),
            (cli, 1),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, rounds: int, golden_cli: dict) -> list:
    """The first ``rounds`` rounds of a workload's seeded op stream, each a
    list of ops with every kind spread evenly over the round."""
    rng = Draws(f"{workload}:{seed}")
    plan = _plan(workload, rng, load_quivers(), seed, golden_cli)
    out = []
    for _ in range(rounds):
        slots = []
        for k, (stream, count) in enumerate(plan):
            slots.extend(((j + 0.5) / count, k, next(stream)) for j in range(count))
        out.append([op for _, _, op in sorted(slots, key=lambda s: s[:2])])
    return out
