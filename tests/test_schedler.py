import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhq import (
    CompositionError,
    HBarPolynomial,
    HH0Element,
    HeightConfiguration,
    Letter,
    QPAElement,
    SymElement,
    canonical_necklace,
    idempotent_class,
    ideal_generator,
    is_canonical,
    lift,
    lift_necklace,
    make_configuration,
    make_params,
    make_sym_monomial,
    moment_lift,
    necklace_bracket,
    project,
    qpa_comm,
    qpa_mul,
    schedler,
    straighten,
)
from nhq.expr import format_qpa, parse_qpa_element
from nhq.sampling import (
    random_coefficient,
    random_configuration,
    random_necklace,
    random_quiver,
    random_sym_element,
    small_quivers,
)
from nhq.schedler import sym_mul
from nhq.trace import lift_necklace_combination

H = HBarPolynomial.h()


def _cfg(quiver, *components, idems=()):
    return make_configuration(quiver, components, idems)


# -- configurations ----------------------------------------------------------


def test_make_configuration_normalizes(J):
    x, xs = Letter(0, False), Letter(0, True)
    cfg = make_configuration(J, [((x, 7), (xs, 3))])
    # heights renumbered to 1..2, linearized at the minimal height
    assert cfg.components == (((xs, 1), (x, 2)),)


def test_make_configuration_rejects_duplicates_and_bad_words(J, A2):
    x = Letter(0, False)
    with pytest.raises(CompositionError):
        make_configuration(J, [((x, 1), (x.star(), 1))])
    a = Letter(0, False)
    with pytest.raises(CompositionError):
        make_configuration(A2, [((a, 1), (a, 2))])  # a does not compose with a


def test_is_canonical(J):
    x, xs = Letter(0, False), Letter(0, True)
    assert is_canonical(J, _cfg(J, ((x, 1), (xs, 2))))
    assert not is_canonical(J, _cfg(J, ((xs, 1), (x, 2))))
    assert is_canonical(J, HeightConfiguration((), ()))


# -- straightening -----------------------------------------------------------


def test_straighten_canonical_is_identity(J):
    x, xs = Letter(0, False), Letter(0, True)
    cfg = _cfg(J, ((x, 1), (xs, 2)))
    result = straighten(J, cfg)
    assert result.terms == {cfg: 1}


def test_straighten_single_component_swap(J):
    # (x',1)(x,2) = (x,1)(x',2) + h (ev & ev)
    x, xs = Letter(0, False), Letter(0, True)
    result = straighten(J, _cfg(J, ((xs, 1), (x, 2))))
    expected = QPAElement(
        J,
        {
            _cfg(J, ((x, 1), (xs, 2))): 1,
            HeightConfiguration((), (0, 0)): H,
        },
    )
    assert result == expected


def test_straighten_cross_check_by_quantum_trace(J):
    # both sides of the single-swap identity have equal quantum traces at d=1
    from nhq.trace import trace_quantum_config

    x, xs = Letter(0, False), Letter(0, True)
    d = (1,)
    lhs = trace_quantum_config(J, d, (((xs, 1), (x, 2)),), ())
    rhs = trace_quantum_config(J, d, (((x, 1), (xs, 2)),), ()) + (
        trace_quantum_config(J, d, (), (0, 0)).scale(H)
    )
    assert lhs == rhs


def test_straighten_two_component_merge(J):
    # (x',1) & (x,2) = (x,1) & (x',2) + h ev
    x, xs = Letter(0, False), Letter(0, True)
    result = straighten(J, _cfg(J, ((xs, 1),), ((x, 2),)))
    expected = QPAElement(
        J,
        {
            _cfg(J, ((x, 1),), ((xs, 2),)): 1,
            HeightConfiguration((), (0,)): H,
        },
    )
    assert result == expected


def test_straighten_confluence_randomized():
    rng = random.Random(21)
    for _ in range(30):
        q = random_quiver(rng)
        cfg = random_configuration(rng, q, max_letters=8)
        results = [
            straighten(q, cfg, strategy=strategy)
            for strategy in ("first", "last", "middle")
        ]
        results.append(straighten(q, cfg, strategy="random", rng=random.Random(99)))
        assert all(r == results[0] for r in results[1:])


def _inversions(seq) -> int:
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])


def test_straighten_measure_strictly_decreases(monkeypatch):
    """(letters, inversions) falls on every swap edge and every correction
    edge of the full rewrite tree, for every picker.  The wrapped
    ``_rewrite`` expands every correction unmemoized (its memo stores
    nothing), and the straighten cache is cleared first, so no edge hides
    behind a cache.  The kernel expands a correction through the module's
    ``_rewrite``, so the wrapper sees every form, and each one's parent is
    the form expanded around it.

    Every picker moves a letter in one run, down past each letter whose
    target lies above its own, and each of those swaps removes exactly one
    inversion: a form's own swaps (the budget it charges, less what its
    corrections charge) equal the inversions it starts from, and every
    correction has two letters fewer than its parent and a measure below
    the parent's starting one.  A non-default picker is also followed
    through the picker it is handed, which replays each run on the tracked
    target sequence and checks that the kernel's descents are its."""
    rewrite = schedler._rewrite
    first = schedler._PICKERS["first"]
    edges = {(route, kind): 0 for route in ("lowest", "picked") for kind in ("swap", "correction")}
    parents = []  # [starting measure, charged by its corrections] of each form being expanded, innermost last

    class Unmemoized:
        get = staticmethod(lambda key: None)
        put = staticmethod(lambda key, entry: None)

    def watched(head, word, succ, idems, pick, rng, memo, budget):
        pick = getattr(pick, "followed", pick)  # a parent's tracking picker hands on the one it follows
        seq = schedler._canonical_targets(word, succ)[0]
        route = "lowest" if pick is first else "picked"
        measure = (len(seq), _inversions(seq))
        if parents:
            parent = parents[-1][0]
            assert measure < parent
            assert len(seq) == parent[0] - 2
            edges[route, "correction"] += 1

        def tracking_pick(inverted, rng):
            assert inverted == [h for h in range(1, len(seq)) if seq[h - 1] > seq[h]]
            h = pick(inverted, rng)
            before = _inversions(seq)
            target = seq.pop(h)
            low = h - 1
            while low and seq[low - 1] > target:
                low -= 1
            seq.insert(low, target)
            assert _inversions(seq) == before - (h - low)
            return h

        tracking_pick.followed = pick
        used = budget[0]
        parents.append([measure, 0])
        try:
            out = rewrite(head, word, succ, idems, pick if pick is first else tracking_pick, rng, Unmemoized, budget)
        finally:
            nested = parents.pop()[1]
        charged = budget[0] - used
        if parents:
            parents[-1][1] += charged
        assert charged - nested == measure[1]
        edges[route, "swap"] += measure[1]
        if route == "picked":
            assert seq == sorted(seq)
        return out

    monkeypatch.setattr(schedler, "_rewrite", watched)
    schedler.clear_straighten_cache()
    rng = random.Random(22)
    for _ in range(15):
        q = random_quiver(rng)
        cfg = random_configuration(rng, q, max_letters=7)
        for strategy in ("first", "last", "middle"):
            straighten(q, cfg, strategy=strategy)
    assert all(edges.values()), edges


def test_straighten_rejects_unknown_strategy(J):
    cfg = _cfg(J, ((Letter(0, True), 1), (Letter(0, False), 2)))
    with pytest.raises(ValueError, match="'bogus'.*first, last, middle, random"):
        straighten(J, cfg, strategy="bogus")


def test_straighten_periodic_word_terminates(L2):
    # period-2 words exercise the rotation tie-breaking
    x, y = Letter(0, False), Letter(1, False)
    word = (x.star(), y, x.star(), y)
    cfg = make_configuration(L2, [tuple(zip(word, (4, 2, 1, 3)))])
    for strategy in ("first", "last", "middle"):
        result = straighten(L2, cfg, strategy=strategy)
        assert result == straighten(L2, cfg)


# -- products ----------------------------------------------------------------


def test_unit_element(J):
    one = QPAElement.unit(J)
    x = lift_necklace(J, canonical_necklace(J, (Letter(0, False),)))
    assert qpa_mul(one, x) == x
    assert qpa_mul(x, one) == x


def test_qpa_mul_orders_blocks(J):
    lx = parse_qpa_element(J, "(x,1)")
    lxs = parse_qpa_element(J, "(x',1)")
    prod = qpa_mul(lx, lxs)
    assert prod == parse_qpa_element(J, "(x,1) & (x',2)")
    back = qpa_mul(lxs, lx)
    assert back == prod + parse_qpa_element(J, "ev").scale(H)


def test_qpa_comm_examples(J):
    lx = parse_qpa_element(J, "(x,1)")
    lxs = parse_qpa_element(J, "(x',1)")
    assert qpa_comm(lx, lx).is_zero()
    assert qpa_comm(lx, lxs) == parse_qpa_element(J, "ev").scale(-H)


def test_qpa_comm_quantum_a3_example(A3P):
    x = parse_qpa_element(A3P, "(a0',1)(a1',2)(a2',3)")
    y = parse_qpa_element(A3P, "(a2',1)(a2,2)")
    assert qpa_comm(x, y) == x.scale(H)


def test_qpa_mul_associative_randomized():
    rng = random.Random(23)
    for _ in range(20):
        q = random_quiver(rng)
        xs = [lift_necklace(q, random_necklace(rng, q, 4)) for _ in range(3)]
        assert qpa_mul(qpa_mul(xs[0], xs[1]), xs[2]) == qpa_mul(
            xs[0], qpa_mul(xs[1], xs[2])
        )


# -- lift and project --------------------------------------------------------


def test_lift_idempotent(J):
    m = SymElement.of(J, (idempotent_class(0),))
    assert lift(m).terms == {HeightConfiguration((), (0,)): 1}


def test_lift_two_blocks(J):
    x, xs = Letter(0, False), Letter(0, True)
    m = SymElement.of(
        J, (canonical_necklace(J, (x,)), canonical_necklace(J, (xs,)))
    )
    assert lift(m).terms == {_cfg(J, ((x, 1),), ((xs, 2),)): 1}


def test_lift_single_cycle_uses_canonical_rotation(J):
    x, xs = Letter(0, False), Letter(0, True)
    m = SymElement.of(J, (canonical_necklace(J, (xs, x)),))
    assert lift(m).terms == {_cfg(J, ((x, 1), (xs, 2))): 1}


def test_lift_necklace_combination_rekeys_the_coded_necklaces():
    # each coded necklace goes straight to its canonical configuration: the
    # same element as the lift of the Sym element of one-necklace monomials
    rng = random.Random(29)
    for q in small_quivers():
        for _ in range(8):
            terms = {
                random_necklace(rng, q, max_len=6): random_coefficient(rng, with_h=True)
                for _ in range(rng.randint(0, 4))
            }
            x = HH0Element(q, terms)
            expected = lift(SymElement(q, {(necklace,): c for necklace, c in x.items()}))
            got = lift_necklace_combination(x)
            assert got == expected and got.terms == expected.terms
            assert project(got) == SymElement(q, {(necklace,): c for necklace, c in terms.items()})


def test_lift_necklace_is_the_lift_of_its_monomial():
    # every necklace of up to 4 letters and every idempotent class
    for q in small_quivers():
        necklaces = {idempotent_class(v) for v in range(len(q.vertices))}
        for n in range(1, 5):
            for word in itertools.product(list(q.letters()), repeat=n):
                try:
                    necklaces.add(canonical_necklace(q, word))
                except CompositionError:
                    pass
        for necklace in necklaces:
            expected = lift(SymElement.of(q, (necklace,)))
            got = lift_necklace(q, necklace)
            assert got == expected and got.terms == expected.terms, necklace


def test_project_section_randomized():
    rng = random.Random(24)
    for _ in range(40):
        q = random_quiver(rng)
        m = random_sym_element(rng, q)
        assert project(lift(m)) == m


def test_project_of_product(J):
    lx = parse_qpa_element(J, "(x,1)")
    lxs = parse_qpa_element(J, "(x',1)")
    result = project(qpa_mul(lxs, lx))
    x, xs = Letter(0, False), Letter(0, True)
    expected = SymElement(
        J,
        {
            make_sym_monomial(
                (canonical_necklace(J, (x,)), canonical_necklace(J, (xs,)))
            ): 1,
            make_sym_monomial((idempotent_class(0),)): H,
        },
    )
    assert result == expected
    assert project(QPAElement(J)).is_zero()


def test_classical_limit_randomized():
    rng = random.Random(25)
    for _ in range(20):
        q = random_quiver(rng)
        m1 = random_sym_element(rng, q, max_len=3, max_factors=2)
        m2 = random_sym_element(rng, q, max_len=3, max_factors=2)
        lhs = project(qpa_mul(lift(m1), lift(m2))).constant_part()
        rhs = sym_mul(m1, m2).constant_part()
        assert lhs == rhs


def test_dirac_condition_randomized():
    rng = random.Random(26)
    for _ in range(25):
        q = random_quiver(rng)
        from nhq.sampling import random_hh0

        x = random_hh0(rng, q, max_len=4)
        y = random_hh0(rng, q, max_len=4)
        comm = qpa_comm(lift_necklace_combination(x), lift_necklace_combination(y))
        assert comm.is_divisible_by_h()
        lhs = project(comm.div_h().scale(-1)).constant_part()
        rhs = project(lift_necklace_combination(necklace_bracket(x, y))).constant_part()
        assert lhs == rhs


# -- the moment element and ideal generators ---------------------------------


def test_moment_lift_jordan(J):
    assert moment_lift(J).terms == {HeightConfiguration((), (0, 0)): -H}


def test_moment_lift_a2_via_straighten_oracle(A2):
    a, as_ = Letter(0, False), Letter(0, True)
    direct = straighten(A2, _cfg(A2, ((a, 1), (as_, 2)))) - straighten(
        A2, _cfg(A2, ((as_, 1), (a, 2)))
    )
    assert moment_lift(A2) == direct
    assert direct.terms == {HeightConfiguration((), (0, 1)): -H}


def test_moment_lift_no_arrows():
    from nhq.quiver import make_quiver

    q = make_quiver(["u", "w"], [])
    assert moment_lift(q).is_zero()


def test_ideal_generator_jordan_idempotent(J):
    params = make_params(J, r={"v": Fraction(3)})
    gen = ideal_generator(J, idempotent_class(0), 0, 0, params)
    expected = moment_lift(J) + QPAElement(
        J, {HeightConfiguration((), (0,)): 3 * H}
    )
    assert gen == expected


def test_ideal_generator_a3p_vertex0(A3P):
    params = make_params(A3P, r={"0": 1})
    v0 = A3P.vertex_index("0")
    gen = ideal_generator(A3P, idempotent_class(v0), v0, 0, params)
    # oracle: straighten the three word-order splices directly
    names = {a.name: i for i, a in enumerate(A3P.arrows)}
    a0, a2, p = (Letter(names[n], False) for n in ("a0", "a2", "p"))
    direct = (
        straighten(A3P, _cfg(A3P, ((a2, 1), (a2.star(), 2))))
        + straighten(A3P, _cfg(A3P, ((p, 1), (p.star(), 2))))
        - straighten(A3P, _cfg(A3P, ((a0.star(), 1), (a0, 2))))
        + QPAElement(A3P, {HeightConfiguration((), (v0,)): H})
    )
    assert gen == direct


def test_ideal_generator_marked_cycle_with_lambda(J):
    c = Fraction(7)
    params = make_params(J, lam={"v": c})
    x, xs = Letter(0, False), Letter(0, True)
    neck = canonical_necklace(J, (x, xs))
    gen = ideal_generator(J, neck, 0, 1, params)
    direct = (
        straighten(J, _cfg(J, ((x, 1), (xs, 2), (x, 3), (xs, 4))))
        - straighten(J, _cfg(J, ((x, 1), (xs, 2), (xs, 3), (x, 4))))
        - straighten(J, _cfg(J, ((x, 1), (xs, 2)))).scale(c)
    )
    assert gen == direct


def test_ideal_parts_are_built_in_their_final_forms(A3P):
    """The parts of every generator up to length 3 come out of
    ``_ideal_parts`` in the form their consumers read: the spliced moment
    configurations and p's cycle in height form, p's cycle as a coded key,
    and the closed words of the tau re-expansion as ``_normalize`` makes
    them from p's word at heights 1..v and a moment pair, its unstarred
    letter at v + 1 and starred one at v + 2."""
    from nhq.quiver import _code, moment_pairs
    from nhq.trace import enumerate_generators

    for quiver in (*small_quivers(), A3P):
        for necklace, vertex, mark in enumerate_generators(quiver, 3):
            word = schedler.marked_word(quiver, necklace, vertex, mark)
            base, v = _code(word), len(word)
            heights = tuple(range(1, v + 1))
            moments, closed = [], {}
            for sign, first, second in moment_pairs(quiver, vertex):
                codes = (base + _code((first, second)),)
                spliced = schedler._height_form(codes, (heights + (v + 1, v + 2),))
                moments.append((*spliced, (), sign))
                tail = (v + 2, v + 1) if first.starred else (v + 1, v + 2)
                key = schedler._normalize(codes, (heights + tail,), ())
                closed[key] = closed.get(key, 0) + sign
            coded = ((base,), (heights,), ()) if v else ((), (), (vertex,))
            cycle = (*schedler._height_form(*coded[:2]), coded[2])
            expected = moments, cycle, coded, {key: c for key, c in closed.items() if c}
            assert schedler._ideal_parts(quiver, word, vertex) == expected


def test_ideal_generator_mark_validation(A2):
    a = Letter(0, False)
    neck = canonical_necklace(A2, (a, a.star()))
    # mark 0 sits on the letter a whose source is vertex index 0
    assert not ideal_generator(A2, neck, 0, 0).is_zero()
    with pytest.raises(CompositionError):
        ideal_generator(A2, neck, 1, 0)
    with pytest.raises(CompositionError):
        ideal_generator(A2, neck, 0, 1)
    with pytest.raises(CompositionError):
        ideal_generator(A2, idempotent_class(0), 1, 0)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_qpa_round_trip_printing(seed):
    rng = random.Random(seed)
    for quiver in small_quivers():
        x = QPAElement(quiver)
        for _ in range(rng.randint(1, 3)):
            cfg = random_configuration(rng, quiver, max_letters=6, max_idempotents=2)
            x = x + straighten(quiver, cfg).scale(random_coefficient(rng, with_h=True))
        assert parse_qpa_element(quiver, format_qpa(x)) == x
