import json
import random

import pytest

from nhq import (
    Letter,
    Path,
    PathAlgebraElement,
    QuiverFormatError,
    make_path,
    natural_projection,
    parse_quiver,
    path_mul,
    serialize_quiver,
)
from nhq.sampling import random_path_element


JORDAN_TEXT = '{"vertices":["v"],"arrows":[{"name":"x","from":"v","to":"v"}]}'


def test_parse_jordan():
    q = parse_quiver(JORDAN_TEXT)
    assert q.vertices == ("v",)
    assert len(q.arrows) == 1
    assert q.arrows[0].name == "x"
    assert q.arrows[0].source == q.arrows[0].target == 0


def test_parse_a2(A2):
    assert A2.vertices == ("1", "2")
    a = A2.arrows[0]
    assert (a.source, a.target) == (0, 1)


def test_parse_a3p_orientation(A3P):
    # Orientation reconstructed from the moment-element decomposition:
    # a0:0->1, a1:1->2, a2:2->0, p:inf->0.
    arrows = {a.name: (A3P.vertices[a.source], A3P.vertices[a.target]) for a in A3P.arrows}
    assert arrows == {
        "a0": ("0", "1"),
        "a1": ("1", "2"),
        "a2": ("2", "0"),
        "p": ("inf", "0"),
    }


@pytest.mark.parametrize(
    "text,location",
    [
        ('{"vertices":["v","v"],"arrows":[]}', "vertices[1]"),
        (
            '{"vertices":["v"],"arrows":[{"name":"x","from":"v","to":"w"}]}',
            "arrows[0].to",
        ),
        (
            '{"vertices":["v"],"arrows":[{"name":"x","from":"v","to":"v"},'
            '{"name":"x","from":"v","to":"v"}]}',
            "arrows[1].name",
        ),
        ('{"vertices":["v"],"arrows":[{"from":"v","to":"v"}]}', "arrows[0]"),
        ('{"vertices":["a b"],"arrows":[]}', "vertices[0]"),
        # a field given twice is refused, not overwritten, even with the same value
        ('{"vertices":["v"],"arrows":[{"name":"x","from":"v","to":"v","name":"y"}]}', "arrows[0]"),
        ('{"vertices":["v"],"arrows":[],"vertices":["w"]}', "document"),
        ('{"arrows":[],"vertices":["v"],"arrows":[]}', "document"),
        ('{"vertices":["v"],"arrows":[{"name":"x","from":"v","to":"v"},{"name":"y","from":"v","to":"v","to":"v"}]}', "arrows[1]"),
    ],
)
def test_parse_errors_carry_location(text, location):
    with pytest.raises(QuiverFormatError) as err:
        parse_quiver(text)
    assert err.value.location == location


def test_malformed_json_reports_position():
    with pytest.raises(QuiverFormatError) as err:
        parse_quiver("{not json")
    assert "line" in err.value.location


def test_round_trip_canonical_form(J, A2, A3P):
    for q in (J, A2, A3P):
        text = serialize_quiver(q)
        assert parse_quiver(text) == q
        assert serialize_quiver(parse_quiver(text)) == text
    # canonical text is valid JSON with the two fields in order
    doc = json.loads(serialize_quiver(A3P))
    assert list(doc) == ["vertices", "arrows"]


def test_letters_and_star(J):
    x = Letter(0, False)
    assert x.star() == Letter(0, True)
    assert x.star().star() == x
    assert x.source(J) == x.target(J) == 0
    assert x < x.star()  # plain sorts before starred


def test_path_mul_composable_loop(J):
    x = PathAlgebraElement.of_path(J, Path((Letter(0, False),)))
    xs = PathAlgebraElement.of_path(J, Path((Letter(0, True),)))
    prod = path_mul(x, xs)
    assert prod.terms == {make_path(J, (Letter(0, False), Letter(0, True))): 1}


def test_path_mul_non_composable_is_zero(A2):
    a = PathAlgebraElement.of_path(A2, Path((Letter(0, False),)))
    assert path_mul(a, a).is_zero()


def test_trivial_path_is_local_unit(A2):
    a = PathAlgebraElement.of_path(A2, Path((Letter(0, False),)))
    at_target = PathAlgebraElement.trivial(A2, 1)  # t(a) = vertex "2"
    at_source = PathAlgebraElement.trivial(A2, 0)
    assert path_mul(at_target, a) == a
    assert path_mul(a, at_source) == a
    assert path_mul(at_source, a).is_zero()


def test_unit_is_two_sided(J, A2, A3P):
    rng = random.Random(5)
    for q in (J, A2, A3P):
        unit = PathAlgebraElement.unit(q)
        for _ in range(10):
            x = random_path_element(rng, q)
            assert path_mul(unit, x) == x
            assert path_mul(x, unit) == x


def test_path_mul_associative_randomized(J, A2, A3P):
    rng = random.Random(6)
    for q in (J, A2, A3P):
        for _ in range(15):
            x = random_path_element(rng, q)
            y = random_path_element(rng, q)
            z = random_path_element(rng, q)
            assert path_mul(path_mul(x, y), z) == path_mul(x, path_mul(y, z))


def test_make_path_rejects_non_composable(A2):
    a = Letter(0, False)
    with pytest.raises(Exception):
        make_path(A2, (a, a))


# -- natural projection ------------------------------------------------------


def _rotations(word):
    return [word[k:] + word[:k] for k in range(len(word))]


def test_projection_kills_open_paths(A2):
    a = PathAlgebraElement.of_path(A2, Path((Letter(0, False),)))
    assert natural_projection(a).is_zero()


def test_projection_of_closed_path(J):
    x, xs = Letter(0, False), Letter(0, True)
    elem = PathAlgebraElement.of_path(J, make_path(J, (x, xs)))
    proj = natural_projection(elem)
    assert len(proj.terms) == 1
    (necklace,) = proj.terms
    assert necklace.letters == (x, xs)


def test_rotation_equivalence_oracle(J):
    # the commutator x x' - x' x projects to zero because the two words are
    # rotations of each other
    x, xs = Letter(0, False), Letter(0, True)
    assert (xs, x) in _rotations((x, xs))
    elem = PathAlgebraElement(
        J, {make_path(J, (x, xs)): 1, make_path(J, (xs, x)): -1}
    )
    assert natural_projection(elem).is_zero()


def test_projection_trace_property_randomized(J, A2, A3P):
    rng = random.Random(7)
    for q in (J, A2, A3P):
        for _ in range(15):
            x = random_path_element(rng, q)
            y = random_path_element(rng, q)
            lhs = natural_projection(path_mul(x, y))
            rhs = natural_projection(path_mul(y, x))
            assert lhs == rhs
