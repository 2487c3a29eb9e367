"""Finite quivers, the doubled quiver, paths, and the path algebra over Q[h].

A quiver is a finite directed multigraph with a fixed total order on its
vertices and arrows (declaration order in the input file).  The doubled
quiver adds a reverse letter a' for every arrow a; letters are represented
as (arrow index, star flag) pairs so the star involution is structural.
Words compose right to left: p*q is defined when source(p) = target(q).
Dimension vectors are validated here (``make_dimension_vector``).
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import work
from .errors import CompositionError, DimensionError, ExpressionError, MismatchError, QuiverFormatError
from .linear import _PackedSums, bilinear, from_ints
from .rings import as_fraction

NAME_PATTERN = re.compile(r"[A-Za-z0-9_]+\Z")

#: most arrows a quiver may have: every coded layer (necklaces, both brackets,
#: height configurations and their caches) codes a letter as one character,
#: chr(2*arrow + starred), and chr stops at sys.maxunicode
MAX_ARROWS = (sys.maxunicode + 1) // 2

#: most vertices a quiver may have: the straighten cache's keys hold a
#: vertex (a letter's target, an idempotent) as one character, chr(vertex)
MAX_VERTICES = sys.maxunicode + 1


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    _vertex_index: dict = field(default=None, compare=False, repr=False)
    _arrow_index: dict = field(default=None, compare=False, repr=False)
    _hash: int = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_vertex_index", {v: i for i, v in enumerate(self.vertices)}
        )
        object.__setattr__(
            self, "_arrow_index", {a.name: i for i, a in enumerate(self.arrows)}
        )
        # hashed once: the caches keyed by a quiver look it up on every call
        object.__setattr__(self, "_hash", hash((self.vertices, self.arrows)))

    def __hash__(self):
        return self._hash

    def vertex_index(self, name: str) -> int:
        try:
            return self._vertex_index[name]
        except KeyError:
            raise KeyError(f"unknown vertex {name!r}") from None

    def arrow_index(self, name: str) -> int:
        try:
            return self._arrow_index[name]
        except KeyError:
            raise KeyError(f"unknown arrow {name!r}") from None

    def has_vertex(self, name: str) -> bool:
        return name in self._vertex_index

    def has_arrow(self, name: str) -> bool:
        return name in self._arrow_index

    def letters(self):
        """All letters of the doubled quiver, plain before starred per arrow."""
        for i in range(len(self.arrows)):
            yield Letter(i, False)
            yield Letter(i, True)


class Letter(NamedTuple):
    """A letter of the doubled quiver: an arrow or its reverse.

    The field order (arrow index, star flag) is also the total letter order
    used everywhere for canonical rotations; plain sorts before starred.
    As a named tuple a letter compares and hashes as that pair, in C.
    """

    arrow: int
    starred: bool

    def star(self) -> "Letter":
        return Letter(self.arrow, not self.starred)

    def source(self, quiver: Quiver) -> int:
        a = quiver.arrows[self.arrow]
        return a.target if self.starred else a.source

    def target(self, quiver: Quiver) -> int:
        a = quiver.arrows[self.arrow]
        return a.source if self.starred else a.target

    def name(self, quiver: Quiver) -> str:
        base = quiver.arrows[self.arrow].name
        return base + "'" if self.starred else base


class _LetterTable(dict):
    """code character -> ``Letter``, filled on first use.

    A code needs no quiver to decode: code o is ``Letter(o >> 1, bool(o &
    1))``.  Each letter is built once and shared by every decoded word.
    """

    __slots__ = ()

    def __missing__(self, c: str) -> Letter:
        o = ord(c)
        letter = self[c] = Letter(o >> 1, bool(o & 1))
        return letter


_LETTER = _LetterTable()


def _code(letters) -> str:
    """A word as one character per letter, ``chr(2*arrow + starred)``.

    Code order is the letter order, and the partner of code c (the letter
    with the other star) is ``chr(ord(c) ^ 1)``.
    """
    return "".join([chr(2 * letter[0] + letter[1]) for letter in letters])


@lru_cache(maxsize=64)
def _ends(quiver: "Quiver") -> dict:
    """{letter code: (source vertex, target vertex)} of the doubled quiver."""
    return {_code((letter,)): (letter.source(quiver), letter.target(quiver)) for letter in quiver.letters()}


@dataclass(frozen=True)
class Path:
    """A composable word in the doubled quiver, or a trivial path at a vertex.

    ``letters`` is empty exactly when the path is trivial, in which case
    ``vertex`` holds the basepoint.  Nonempty words leave ``vertex`` unset.
    """

    letters: tuple[Letter, ...]
    vertex: int | None = None

    @staticmethod
    def trivial(vertex: int) -> "Path":
        return Path((), vertex)

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def source(self, quiver: Quiver) -> int:
        if self.is_trivial:
            return self.vertex
        return self.letters[-1].source(quiver)

    def target(self, quiver: Quiver) -> int:
        if self.is_trivial:
            return self.vertex
        return self.letters[0].target(quiver)

    def __len__(self) -> int:
        return len(self.letters)


def make_path(quiver: Quiver, letters) -> Path:
    """Build a nonempty path, checking right-to-left composability."""
    letters = tuple(letters)
    if not letters:
        raise CompositionError("a word path needs at least one letter")
    for k in range(len(letters) - 1):
        if letters[k].source(quiver) != letters[k + 1].target(quiver):
            raise CompositionError(
                f"letters {letters[k].name(quiver)} and {letters[k + 1].name(quiver)} "
                "do not compose"
            )
    return Path(letters)


def moment_pairs(quiver: Quiver, vertex: int):
    """The signed letter pairs of the moment map at ``vertex``, arrow by
    arrow: (1, a, a') for t(a) = vertex and (-1, a', a) for s(a) = vertex.
    Each pair is a two-letter word a a' (or a' a), the first letter leftmost."""
    for ai, arrow in enumerate(quiver.arrows):
        if arrow.target == vertex:
            yield 1, Letter(ai, False), Letter(ai, True)
        if arrow.source == vertex:
            yield -1, Letter(ai, True), Letter(ai, False)


def vertex_vector(quiver: Quiver, values) -> tuple[Fraction, ...]:
    """The rationals of ``values``, a map from vertex names, as a tuple in
    vertex order; a vertex it omits gets 0."""
    out = [Fraction(0)] * len(quiver.vertices)
    for name, value in (values or {}).items():
        if not quiver.has_vertex(name):
            raise ExpressionError(f"unknown vertex {name!r}")
        out[quiver.vertex_index(name)] = as_fraction(value)
    return tuple(out)


def make_dimension_vector(quiver: Quiver, d) -> tuple[int, ...]:
    """Dimension vector as a tuple indexed by vertex; every vertex required."""
    if isinstance(d, dict):
        missing = [v for v in quiver.vertices if v not in d]
        if missing:
            raise DimensionError(f"dimension vector misses vertices {missing}")
        unknown = [v for v in d if not quiver.has_vertex(v)]
        if unknown:
            raise DimensionError(f"dimension vector names unknown vertices {unknown}")
        vec = tuple(d[v] for v in quiver.vertices)
    else:
        vec = tuple(d)
        if len(vec) != len(quiver.vertices):
            raise DimensionError(
                f"dimension vector has {len(vec)} entries for "
                f"{len(quiver.vertices)} vertices"
            )
    for value in vec:
        if not isinstance(value, int) or value < 1:
            raise DimensionError(f"dimension {value!r} is not a positive integer")
    return vec


def _code_path(path: Path):
    """The coded key of a path: its letter code, or its vertex when trivial."""
    return _code(path.letters) or path.vertex


def _decode_path(key) -> Path:
    """The path of a coded key of ``_code_path``."""
    return Path(tuple(map(_LETTER.__getitem__, key))) if type(key) is str else Path.trivial(key)


def _compose(ends: dict, p, q):
    """The coded path p*q of the coded paths ``p`` and ``q`` (``_code_path``),
    or None when source(p) != target(q); ``ends`` is the quiver's table of
    ``_ends``."""
    source = ends[p[-1]][0] if type(p) is str else p
    target = ends[q[0]][1] if type(q) is str else q
    if source != target:
        return None
    if type(p) is not str:
        return q
    return p + q if type(q) is str else p


class PathAlgebraElement(_PackedSums):
    """Element of the path algebra of the doubled quiver over Q[h], keyed
    by coded paths (``_code_path``)."""

    __slots__ = ("quiver",)

    _code_key = staticmethod(_code_path)
    _public_key = staticmethod(_decode_path)

    @classmethod
    def zero(cls, quiver: Quiver) -> "PathAlgebraElement":
        return cls(quiver)

    @classmethod
    def of_path(cls, quiver: Quiver, path: Path, coeff=1) -> "PathAlgebraElement":
        return cls(quiver, {path: coeff})

    @classmethod
    def trivial(cls, quiver: Quiver, vertex: int, coeff=1) -> "PathAlgebraElement":
        return cls(quiver, {Path.trivial(vertex): coeff})

    @classmethod
    def unit(cls, quiver: Quiver) -> "PathAlgebraElement":
        """The two-sided unit, the sum of all trivial paths."""
        return cls(quiver, {Path.trivial(v): 1 for v in range(len(quiver.vertices))})

    def __mul__(self, other):
        if isinstance(other, PathAlgebraElement):
            return path_mul(self, other)
        return self.scale(other)

    __rmul__ = _PackedSums.scale


def path_mul(x: PathAlgebraElement, y: PathAlgebraElement) -> PathAlgebraElement:
    """Bilinear extension of path concatenation; non-composable products
    vanish.  Coded paths concatenate as strs."""
    if x.quiver != y.quiver:
        raise MismatchError("path_mul operands live over different quivers")
    ends = _ends(x.quiver)

    def product(p, q):
        pq = _compose(ends, p, q)
        return None if pq is None else {pq: 1}

    return from_ints(PathAlgebraElement, (x.quiver,), *bilinear(x, y, product))


# ---------------------------------------------------------------------------
# Quiver file format


def _require(cond: bool, message: str, location: str):
    if not cond:
        raise QuiverFormatError(message, location)


def _check_name(value, location: str) -> str:
    _require(isinstance(value, str), "expected a string", location)
    _require(
        bool(NAME_PATTERN.match(value)),
        f"name {value!r} must match [A-Za-z0-9_]+",
        location,
    )
    return value


class _Fields(dict):
    """A JSON object's fields, ``twice`` the first name given twice."""

    twice = None


def _fields(pairs) -> _Fields:
    """The ``object_pairs_hook`` of ``parse_quiver``: it notes a repeated
    name rather than keeping its last value."""
    fields, seen = _Fields(pairs), set()
    if len(fields) < len(pairs):
        fields.twice = next(name for name, _ in pairs if name in seen or seen.add(name))
    return fields


def _check_fields(obj: _Fields, allowed, location: str) -> None:
    _require(obj.twice is None, f"duplicate field {obj.twice!r}", location)
    for key in obj:
        _require(key in allowed, f"unknown field {key!r}", location)


def parse_quiver(text: str) -> Quiver:
    """Parse the canonical quiver file format (JSON with vertices/arrows).
    A field given twice in one object is refused, not overwritten."""
    try:
        doc = json.loads(text, object_pairs_hook=_fields)
    except json.JSONDecodeError as exc:
        raise QuiverFormatError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from None
    _require(isinstance(doc, dict), "top level must be an object", "document")
    _check_fields(doc, ("vertices", "arrows"), "document")
    _require("vertices" in doc, "missing field 'vertices'", "document")
    _require("arrows" in doc, "missing field 'arrows'", "document")
    raw_vertices = doc["vertices"]
    _require(isinstance(raw_vertices, list), "expected a list", "vertices")
    message = "{amount} vertices, above the limit {limit}"
    work.check(len(raw_vertices), MAX_VERTICES, message, QuiverFormatError, "vertices")
    vertices = []
    seen = set()
    for i, name in enumerate(raw_vertices):
        loc = f"vertices[{i}]"
        name = _check_name(name, loc)
        _require(name not in seen, f"duplicate vertex name {name!r}", loc)
        seen.add(name)
        vertices.append(name)
    raw_arrows = doc["arrows"]
    _require(isinstance(raw_arrows, list), "expected a list", "arrows")
    message = "{amount} arrows, above the limit {limit}"
    work.check(len(raw_arrows), MAX_ARROWS, message, QuiverFormatError, "arrows")
    arrows = []
    seen_arrows = set()
    vindex = {v: i for i, v in enumerate(vertices)}
    for i, rec in enumerate(raw_arrows):
        loc = f"arrows[{i}]"
        _require(isinstance(rec, dict), "expected an object", loc)
        _check_fields(rec, ("name", "from", "to"), loc)
        for key in ("name", "from", "to"):
            _require(key in rec, f"missing field {key!r}", loc)
        name = _check_name(rec["name"], f"{loc}.name")
        _require(name not in seen_arrows, f"duplicate arrow name {name!r}", f"{loc}.name")
        seen_arrows.add(name)
        src = rec["from"]
        dst = rec["to"]
        _require(isinstance(src, str), "expected a string", f"{loc}.from")
        _require(isinstance(dst, str), "expected a string", f"{loc}.to")
        _require(src in vindex, f"unknown vertex {src!r}", f"{loc}.from")
        _require(dst in vindex, f"unknown vertex {dst!r}", f"{loc}.to")
        arrows.append(Arrow(name, vindex[src], vindex[dst]))
    return Quiver(tuple(vertices), tuple(arrows))


def serialize_quiver(quiver: Quiver) -> str:
    """Canonical file form; parse_quiver(serialize_quiver(q)) == q."""
    doc = {
        "vertices": list(quiver.vertices),
        "arrows": [
            {
                "name": a.name,
                "from": quiver.vertices[a.source],
                "to": quiver.vertices[a.target],
            }
            for a in quiver.arrows
        ],
    }
    return json.dumps(doc)


def make_quiver(vertices, arrows) -> Quiver:
    """Build a quiver from vertex names and (name, from, to) triples."""
    doc = {
        "vertices": list(vertices),
        "arrows": [{"name": n, "from": s, "to": t} for (n, s, t) in arrows],
    }
    return parse_quiver(json.dumps(doc))
