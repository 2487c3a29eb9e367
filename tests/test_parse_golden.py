"""Golden results of every parser on a seeded corpus of texts.

``tests/data/parse_golden.json`` holds, for each text of the corpus below
and each of the quivers jordan, a2 and two_loop at d = 2, what the five
``parse_*`` functions make of it: the canonical printed element, or the
exception class and its position.  Messages are not recorded, so a
reworded error keeps the file; a parser that accepts a different language
does not.  A deliberate change re-records the file with

    PYTHONPATH=src python tests/test_parse_golden.py
"""

import hashlib
import json
import os
import random
import sys

from nhq.expr import (
    format_element,
    parse_hh0_element,
    parse_path_element,
    parse_poly_element,
    parse_qpa_element,
    parse_weyl_element,
)
from nhq.sampling import a2, jordan, two_loop

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "parse_golden.json")

QUIVERS = {"jordan": jordan, "a2": a2, "two_loop": two_loop}

#: Pieces of every grammar, with the names the three quivers use.
_TOKENS = [
    "x", "x'", "y", "y'", "a", "a'", "ev", "e1", "e2", "h", "d", "_",
    "(", ")", "[", "]", "{", "}", ",", "+", "-", "*", "/", ".", "&", "^", "'",
    " ", "0", "1", "2", "3", "12",
]

#: Whole factors of each grammar, joined below by the operators of every
#: grammar: paths, classes, height pairs and idempotents, operator and
#: coordinate entries (some outside a 2x2 block), and scalars for all.
_FACTORS = {
    "path": ["x", "x'", "y", "a", "a'", "ev", "e1", "e2", "-x", "(x+ev)^3", "x^0",
             "x'^2", "(x.y)^2", "(y-x)"],
    "hh0": ["[x.x']", "[a.a']", "[y.x]", "[ev]", "[x^2]", "-[y]", "[e1]", "[a'.a]"],
    "qpa": ["(x,1)", "(x',2)", "(a,1)(a',2)", "(y,2)(x,1)", "(x,1)(x',2)", "ev & ev",
            "e1&e2", "e1", "(x,1)&(x',2)", "(a',1)(a,2)"],
    "weyl": ["[x]_{1,2}", "[x]_{3,1}", "[a]_{2,1}^2", "d(x)_{2,2}", "d(a)_{1,0}",
             "d(y)_{1,2}^3", "[y]_{1,1}", "d(a)_{2,1}"],
    "poly": ["(x)_{1,1}", "(a')_{2,1}", "(b)_{1,5}", "(y')_{2,2}^2", "(x')_{1,2}",
             "(a)_{2,1}^3"],
}
_SCALARS = ["h", "h^2", "2", "3/2", "0", "1/0", "(1+h)^3", "(h-2)", "(-1)", "-3"]
_JOINS = ["+", "-", "*", ".", "&", " ", "", " - ", "-(", ")"]
#: The joins within each grammar.
_SAME_JOINS = {
    "path": ["+", "-", "*", ".", " - ", "-"],
    "hh0": ["+", "-", "*", " - "],
    "qpa": ["+", "-", "*", " & ", "&", " - "],
    "weyl": ["+", "-", "*", " - ", " * "],
    "poly": ["+", "-", "*", " - ", " * "],
}

#: Printed results longer than this are recorded by a digest.
_MAX_TEXT = 120


def _joined(rng, factors, joins, count):
    return "".join(rng.choice(joins) + rng.choice(factors) for _ in range(count))


def _corpus():
    rng = random.Random(20231)
    texts = []
    for _ in range(120):
        texts.append("".join(rng.choice(_TOKENS) for _ in range(rng.randint(1, 16))))
    every = [f for pool in _FACTORS.values() for f in pool] + _SCALARS
    for _ in range(120):
        texts.append(_joined(rng, every, _JOINS, rng.randint(1, 5)))
    for grammar, pool in _FACTORS.items():
        pool = pool + _SCALARS
        for _ in range(80):
            count = rng.randint(0, 3)
            texts.append(rng.choice(pool) + _joined(rng, pool, _SAME_JOINS[grammar], count))
    return list(dict.fromkeys(texts))


def _parsers(dim):
    return (
        parse_path_element,
        parse_hh0_element,
        parse_qpa_element,
        lambda q, t: parse_weyl_element(q, dim, t),
        lambda q, t: parse_poly_element(q, dim, t),
    )


def _outcome(parse, quiver, text):
    try:
        printed = format_element(parse(quiver, text))
    except Exception as exc:  # the class is the record, whatever it is
        return f"{type(exc).__name__}@{getattr(exc, 'position', None)}"
    if len(printed) > _MAX_TEXT:
        return "sha256:" + hashlib.sha256(printed.encode()).hexdigest()[:16]
    return printed


def _record(text):
    """The five parsers' outcomes on each quiver, in the order of QUIVERS."""
    out = []
    for make in QUIVERS.values():
        quiver = make()
        dim = (2,) * len(quiver.vertices)
        out += [_outcome(parse, quiver, text) for parse in _parsers(dim)]
    return out


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_the_corpus():
    assert [text for text, _ in _load()] == _corpus()


def test_parsers_match_golden():
    mismatches = [
        (text, expected, got)
        for text, expected in _load()
        for got in [_record(text)]
        if got != expected
    ]
    assert not mismatches[:5], f"{len(mismatches)} texts differ"


if __name__ == "__main__":
    records = [[text, _record(text)] for text in _corpus()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(r, ensure_ascii=False) for r in records))
        fh.write("\n]\n")
    sys.exit(0)
