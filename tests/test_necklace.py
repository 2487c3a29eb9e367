import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from nhq import (
    CompositionError,
    HeightConfiguration,
    HH0Element,
    Letter,
    Necklace,
    Path,
    PathAlgebraElement,
    canonical_necklace,
    double_bracket,
    idempotent_class,
    make_gauge_expression,
    make_path,
    moment_map,
    natural_projection,
    necklace_bracket,
    necklace_key,
    path_mul,
    straighten,
    xi,
)
from linear_oracle import compose_paths
from nhq.expr import format_hh0, parse_hh0_element, parse_path_element
from nhq.necklace import _code, _coded
from nhq.schedler import _config
from nhq.repspace import PolyElement
from nhq.sampling import (
    random_configuration,
    random_dimension,
    random_hh0,
    random_path_element,
    random_quiver,
    random_word,
    small_quivers,
)
from nhq.trace import trace_classical


def _cls(quiver, *letters):
    return HH0Element.of(quiver, canonical_necklace(quiver, letters))


# -- canonical rotations -----------------------------------------------------


def test_canonical_necklace_minimal_rotation(J):
    x, xs = Letter(0, False), Letter(0, True)
    assert canonical_necklace(J, (xs, x)).letters == (x, xs)
    assert canonical_necklace(J, (x, xs)).letters == (x, xs)


def test_canonical_necklace_rotation_oracle(A3P):
    word = tuple(Letter(i, True) for i in (0, 1, 2))  # a0' a1' a2'
    rotations = [word[k:] + word[:k] for k in range(3)]
    values = {canonical_necklace(A3P, rot) for rot in rotations}
    assert len(values) == 1


def test_canonical_necklace_rejects_non_composable(A2):
    with pytest.raises(CompositionError):
        canonical_necklace(A2, (Letter(0, False), Letter(0, False)))


# -- necklace identity -------------------------------------------------------

#: the frozen dataclass ``Necklace`` was before it was keyed by its code
_DataclassNecklace = dataclasses.make_dataclass(
    "Necklace", [("vertex", object), ("letters", tuple)], frozen=True
)


def _least_rotations(quiver, max_len):
    """The least rotation of every cyclically composable word of up to
    ``max_len`` letters, by brute force over letter tuples."""
    letters = list(quiver.letters())
    found = set()
    for n in range(1, max_len + 1):
        for word in itertools.product(letters, repeat=n):
            if all(word[k].source(quiver) == word[(k + 1) % n].target(quiver) for k in range(n)):
                found.add(min(word[k:] + word[:k] for k in range(n)))
    return sorted(found)


def test_necklace_identity_is_its_code():
    """Letter-built and code-built necklaces agree on equality, hash,
    letters, length, basis order and repr, for every necklace of up to 6
    letters on the small quivers; idempotent classes equal no cycle."""
    for quiver in small_quivers():
        words = _least_rotations(quiver, 6)
        idems = [idempotent_class(v) for v in range(len(quiver.vertices))]
        built, coded = [], []
        for word in words:
            n, m = Necklace(None, word), _coded(_code(word))
            assert n == m and hash(n) == hash(m) and m in {n}
            assert canonical_necklace(quiver, word[1:] + word[:1]) == n
            assert m.letters == n.letters == word
            assert all(type(l) is Letter and type(l.starred) is bool for l in m.letters)
            assert len(m) == len(n) == len(word) and not m.is_idempotent
            assert repr(m) == repr(n) == repr(_DataclassNecklace(None, word))
            assert pickle.loads(pickle.dumps(m)) == m
            built.append(n)
            coded.append(m)
        assert len(set(coded)) == len(words)
        for v, e in enumerate(idems):
            assert e == Necklace(v, ()) and hash(e) == hash(Necklace(v, ()))
            assert e.is_idempotent and len(e) == 0 and e.letters == ()
            assert repr(e) == repr(_DataclassNecklace(v, ()))
            assert all(e != n for n in coded)
        assert len(set(idems + coded)) == len(idems) + len(coded)
        old_key = lambda n: (0, n.vertex, ()) if n.is_idempotent else (1, len(n.letters), n.letters)
        everything = idems + coded
        random.Random(len(everything)).shuffle(everything)
        assert sorted(everything, key=necklace_key) == sorted(everything, key=old_key)


#: the frozen dataclass ``HeightConfiguration`` was before it was keyed by
#: its code
_DataclassConfiguration = dataclasses.make_dataclass(
    "HeightConfiguration", [("components", tuple), ("idempotents", tuple)], frozen=True
)


def test_configuration_identity_is_its_code():
    """Letter-built and code-built configurations agree on equality, hash,
    components, letter count, unit test, pickling and repr, for seeded
    random configurations of the small quivers and their straightened
    terms; every attribute is read-only."""
    rng = random.Random(19)
    for quiver in small_quivers():
        configs = [
            random_configuration(rng, quiver, max_letters=8, max_idempotents=2) for _ in range(8)
        ]
        configs += [term for cfg in list(configs) for term in straighten(quiver, cfg).terms]
        configs.append(HeightConfiguration((), ()))
        for cfg in configs:
            comps, idems = cfg.components, cfg.idempotents
            built = HeightConfiguration(comps, idems)
            coded = _config((cfg.codes, cfg.heights, idems))
            assert built == coded == cfg and hash(built) == hash(coded) == hash(cfg)
            assert coded in {built} and built.codes == tuple(_code(l for l, _ in c) for c in comps)
            assert built.heights == tuple(tuple(h for _, h in c) for c in comps)
            # letters with int stars code alike and decode with bool stars
            ints = [[(Letter(l.arrow, int(l.starred)), h) for l, h in comp] for comp in comps]
            decoded = HeightConfiguration(ints, idems).components
            assert coded.components == built.components == decoded == comps
            assert all(
                type(l) is Letter and type(l.starred) is bool and type(h) is int
                for comp in decoded for l, h in comp
            )
            old = _DataclassConfiguration(comps, idems)
            assert coded.letter_count == sum(map(len, old.components))
            assert coded.is_unit == (not old.components and not old.idempotents)
            assert repr(coded) == repr(built) == repr(old)
            assert pickle.loads(pickle.dumps(coded)) == cfg
            names = ("components", "idempotents", "codes", "heights", "letter_count", "is_unit", "x")
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(coded, name, ())
        assert len(set(configs)) == len(set(map(repr, configs)))


def test_necklace_attributes_are_read_only():
    n = _coded("\x00\x01")
    for name, value in (("vertex", 0), ("code", "\x00"), ("letters", ())):
        with pytest.raises(AttributeError):
            setattr(n, name, value)
    assert n.vertex is None and n.code == "\x00\x01"


# -- necklace bracket --------------------------------------------------------


def test_bracket_generator_pair(J):
    x = parse_hh0_element(J, "[x]")
    xs = parse_hh0_element(J, "[x']")
    assert necklace_bracket(x, xs) == parse_hh0_element(J, "[ev]")
    assert necklace_bracket(xs, x) == parse_hh0_element(J, "[ev]").scale(-1)


def test_bracket_cycle_against_letter(J):
    # oracle: multiply-then-project through the double bracket
    xxs = parse_hh0_element(J, "[x.x']")
    x = parse_hh0_element(J, "[x]")
    assert necklace_bracket(xxs, x) == x.scale(-1)
    lifted_a = parse_path_element(J, "x.x'")
    lifted_b = parse_path_element(J, "x")
    via_double = natural_projection(double_bracket(lifted_a, lifted_b).mult())
    assert via_double == necklace_bracket(xxs, x)


def test_bracket_with_idempotent_class_vanishes(J):
    x = parse_hh0_element(J, "[x]")
    e = parse_hh0_element(J, "[ev]")
    assert necklace_bracket(x, e).is_zero()
    assert necklace_bracket(e, x).is_zero()


def test_commuting_family(A3P):
    # the cycles p' Gamma^k p Poisson-commute
    def family(k):
        return parse_hh0_element(A3P, "[p'." + "a0'.a1'.a2'." * k + "p]")

    for k in range(4):
        for l in range(4):
            assert necklace_bracket(family(k), family(l)).is_zero()


def test_bracket_antisymmetry_and_jacobi_randomized():
    rng = random.Random(11)
    for _ in range(25):
        q = random_quiver(rng)
        x = random_hh0(rng, q, max_len=5)
        y = random_hh0(rng, q, max_len=5)
        z = random_hh0(rng, q, max_len=5)
        assert (necklace_bracket(x, y) + necklace_bracket(y, x)).is_zero()
        jac = (
            necklace_bracket(x, necklace_bracket(y, z))
            + necklace_bracket(z, necklace_bracket(x, y))
            + necklace_bracket(y, necklace_bracket(z, x))
        )
        assert jac.is_zero()


def test_bracket_agrees_with_double_bracket_route():
    rng = random.Random(12)
    for _ in range(20):
        q = random_quiver(rng)
        from nhq.sampling import random_closed_word

        w1 = random_closed_word(rng, q, 4)
        w2 = random_closed_word(rng, q, 4)
        p1 = PathAlgebraElement.of_path(q, make_path(q, w1))
        p2 = PathAlgebraElement.of_path(q, make_path(q, w2))
        lhs = necklace_bracket(natural_projection(p1), natural_projection(p2))
        rhs = natural_projection(double_bracket(p1, p2).mult())
        assert lhs == rhs


# -- double bracket ----------------------------------------------------------


def test_double_bracket_generators(J):
    x = parse_path_element(J, "x")
    xs = parse_path_element(J, "x'")
    e = Path.trivial(0)
    result = double_bracket(x, xs)
    assert result.terms == {(e, e): 1}
    assert double_bracket(x, x).is_zero()


def test_double_bracket_one_leibniz_step(J):
    x = parse_path_element(J, "x")
    xsx = parse_path_element(J, "x'.x")
    result = double_bracket(x, xsx)
    expected = {(Path.trivial(0), make_path(J, (Letter(0, False),))): 1}
    assert result.terms == expected


def test_double_bracket_twisted_antisymmetry():
    rng = random.Random(13)
    for _ in range(20):
        q = random_quiver(rng)
        x = random_path_element(rng, q)
        y = random_path_element(rng, q)
        assert double_bracket(x, y) == double_bracket(y, x).swap().scale(-1)


def test_double_bracket_leibniz_in_second_argument():
    rng = random.Random(14)
    for _ in range(20):
        q = random_quiver(rng)
        a = random_path_element(rng, q, max_len=3)
        b = random_path_element(rng, q, max_len=3)
        c = random_path_element(rng, q, max_len=3)
        lhs = double_bracket(a, path_mul(b, c))
        # [a,b]c + b[a,c] under the outer bimodule action
        rhs_terms = {}
        for (p1, p2), coeff in double_bracket(a, b).items():
            for cp, cc in c.items():
                glued = compose_paths(q, p2, cp)
                if glued is not None:
                    key = (p1, glued)
                    rhs_terms[key] = rhs_terms.get(key, 0) + coeff * cc
        for (p1, p2), coeff in double_bracket(a, c).items():
            for bp, bc in b.items():
                glued = compose_paths(q, bp, p1)
                if glued is not None:
                    key = (glued, p2)
                    rhs_terms[key] = rhs_terms.get(key, 0) + coeff * bc
        from nhq.necklace import TensorElement

        assert lhs == TensorElement(q, rhs_terms)


def test_moment_property_on_letters():
    rng = random.Random(15)
    for _ in range(10):
        q = random_quiver(rng)
        w = moment_map(q).element
        from nhq.necklace import TensorElement

        for letter in q.letters():
            g = PathAlgebraElement.of_path(q, Path((letter,)))
            lhs = double_bracket(w, g)
            expected = TensorElement(
                q,
                {
                    (Path((letter,)), Path.trivial(letter.source(q))): 1,
                    (Path.trivial(letter.target(q)), Path((letter,))): -1,
                },
            )
            assert lhs == expected


# -- moment data and the reduction complex -----------------------------------


def test_moment_map_jordan(J):
    data = moment_map(J)
    expected = parse_path_element(J, "x.x' - x'.x")
    assert data.element == expected
    assert data.components[0] == expected


def test_moment_map_a3p_components(A3P):
    data = moment_map(A3P)
    expected = {
        "0": "a2.a2' + p.p' - a0'.a0",
        "1": "a0.a0' - a1'.a1",
        "2": "a1.a1' - a2'.a2",
        "inf": "0 - p'.p",
    }
    for name, text in expected.items():
        i = A3P.vertex_index(name)
        assert data.components[i] == parse_path_element(A3P, text)
    total = data.components[0] + data.components[1] + data.components[2] + data.components[3]
    assert total == data.element


def test_moment_map_deformed(J):
    data = moment_map(J, {"v": 5})
    expected = parse_path_element(J, "x.x' - x'.x - 5*ev")
    assert data.element == expected
    assert data.lam == (Fraction(5),)


def test_moment_map_unknown_vertex(J):
    with pytest.raises(ValueError):
        moment_map(J, {"nope": 1})


def test_xi_unit_frame(J):
    data = moment_map(J)
    g = make_gauge_expression(J, [(1, Path.trivial(0), 0, Path.trivial(0))])
    assert xi(g, data) == data.element


def test_xi_conjugated_frame(J):
    # oracle: direct path multiplication x * w * x'
    data = moment_map(J)
    x = Path((Letter(0, False),))
    xs = Path((Letter(0, True),))
    g = make_gauge_expression(J, [(1, x, 0, xs)])
    direct = path_mul(
        path_mul(PathAlgebraElement.of_path(J, x), data.components[0]),
        PathAlgebraElement.of_path(J, xs),
    )
    assert xi(g, data) == direct
    assert len(direct.terms) == 2  # xxx'x' and xx'xx' with signs


def test_xi_a3p_vertex_frame(A3P):
    data = moment_map(A3P)
    v0 = A3P.vertex_index("0")
    g = make_gauge_expression(A3P, [(1, Path.trivial(v0), v0, Path.trivial(v0))])
    assert xi(g, data) == data.components[v0]


def test_gauge_expression_frame_validation(A2):
    # the letter a starts at vertex index 0, so framing it at vertex 1 fails
    with pytest.raises(CompositionError):
        make_gauge_expression(
            A2, [(1, Path((Letter(0, False),)), 1, Path.trivial(1))]
        )
    with pytest.raises(CompositionError):
        make_gauge_expression(
            A2, [(1, Path.trivial(0), 0, Path((Letter(0, False),)))]
        )


def test_hh0_printing_round_trip(J, A3P):
    rng = random.Random(16)
    for q in (J, A3P):
        for _ in range(10):
            x = random_hh0(rng, q, max_len=4)
            assert parse_hh0_element(q, format_hh0(x)) == x


# -- sums accumulated in one term dict ---------------------------------------


def _fold(zero, pieces):
    """A sum formed as before, one new element per piece."""
    out = zero
    for piece in pieces:
        out = out + piece
    return out


def _framed_entry(rng, quiver):
    """(coeff, left, vertex, right) with left starting and right ending at vertex."""
    left = Path(random_word(rng, quiver, 3)) if rng.random() < 0.8 else None
    vertex = left.source(quiver) if left else rng.randrange(len(quiver.vertices))
    left = left or Path.trivial(vertex)
    words = (random_word(rng, quiver, 3) for _ in range(10))
    right = next((Path(w) for w in words if w[0].target(quiver) == vertex), Path.trivial(vertex))
    return (rng.randint(-3, 3) or 1, left, vertex, right)


def test_term_dict_sums_match_the_fold():
    """``TensorElement.mult``, ``xi`` and ``trace_classical`` add their pieces
    into one dict; the result, term order included, is the old fold's."""
    rng = random.Random(1313)
    checked = 0
    for quiver in small_quivers():
        zero = PathAlgebraElement.zero(quiver)
        one = lambda path, c=1: PathAlgebraElement.of_path(quiver, path, c)
        data = moment_map(quiver, {quiver.vertices[0]: 2})
        for _ in range(15):
            t = double_bracket(random_path_element(rng, quiver), random_path_element(rng, quiver))
            old = _fold(zero, (path_mul(one(p, c), one(q)) for (p, q), c in t.items()))
            new = t.mult()
            assert new == old and list(new.terms) == list(old.terms)

            entries = [_framed_entry(rng, quiver) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:
                # a negated copy cancels its frame's terms
                entries.append((-entries[0][0],) + entries[0][1:])
            g = make_gauge_expression(quiver, entries)
            pieces = (
                path_mul(path_mul(one(l, c), data.components[v]), one(r))
                for c, l, v, r in g.entries
            )
            old, new = _fold(zero, pieces), xi(g, data)
            assert new == old and list(new.terms) == list(old.terms)

            h = random_hh0(rng, quiver, max_len=5, max_terms=5)
            dim = random_dimension(rng, quiver)
            pieces = (
                trace_classical(HH0Element.of(quiver, n), dim).scale(c.constant_term())
                for n, c in h.items()
            )
            old, new = _fold(PolyElement(quiver, dim), pieces), trace_classical(h, dim)
            assert new == old and list(new.terms) == list(old.terms)
            checked += bool(old.terms)
    assert checked > 40


def test_bracket_refusals_are_work_limit_errors(J, monkeypatch):
    from nhq import DimensionError, WorkLimitError, work

    x, xs = Letter(0, False), Letter(0, True)
    p = canonical_necklace(J, (x, xs, x))
    a = PathAlgebraElement.of_path(J, make_path(J, (x, xs, x)))
    # the x' of each operand contracts the other's two x: 4 pairs, each
    # forming 3 + 3 - 2 letters
    monkeypatch.setattr(work, "MAX_MERGE_LETTERS", 15)
    for call, what in (
        (lambda: necklace_bracket(HH0Element.of(J, p), HH0Element.of(J, p)), "bracket merges"),
        (lambda: double_bracket(a, a), "double bracket terms"),
    ):
        with pytest.raises(WorkLimitError) as info:
            call()
        assert isinstance(info.value, DimensionError)
        assert str(info.value) == f"{what} hold up to 16 letters, above the limit 15"
    monkeypatch.setattr(work, "MAX_MERGE_LETTERS", 16)
    necklace_bracket(HH0Element.of(J, p), HH0Element.of(J, p))
    double_bracket(a, a)
