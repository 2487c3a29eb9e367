"""Finite quivers, the doubled quiver, paths, and the path algebra over Q[h].

A quiver is a finite directed multigraph with a fixed total order on its
vertices and arrows (declaration order in the input file).  The doubled
quiver adds a reverse letter a' for every arrow a; letters are represented
as (arrow index, star flag) pairs so the star involution is structural.
Words compose right to left: p*q is defined when source(p) = target(q).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import CompositionError, MismatchError, QuiverFormatError
from .linear import LinearCombination, add_into

NAME_PATTERN = re.compile(r"[A-Za-z0-9_]+\Z")


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

    def __post_init__(self):
        object.__setattr__(
            self, "_vertex_index", {v: i for i, v in enumerate(self.vertices)}
        )
        object.__setattr__(
            self, "_arrow_index", {a.name: i for i, a in enumerate(self.arrows)}
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

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


def compose_paths(quiver: Quiver, p: Path, q: Path) -> Path | None:
    """p*q when source(p) = target(q); None when the product is zero."""
    if p.source(quiver) != q.target(quiver):
        return None
    if p.is_trivial:
        return q
    if q.is_trivial:
        return p
    return Path(p.letters + q.letters)


class PathAlgebraElement(LinearCombination):
    """Element of the path algebra of the doubled quiver over Q[h]."""

    __slots__ = ("quiver",)

    def __init__(self, quiver: Quiver, terms=None):
        object.__setattr__(self, "quiver", quiver)
        super().__init__(terms)

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

    __rmul__ = LinearCombination.scale


def path_mul(x: PathAlgebraElement, y: PathAlgebraElement) -> PathAlgebraElement:
    """Bilinear extension of path concatenation; non-composable products vanish."""
    if x.quiver != y.quiver:
        raise MismatchError("path_mul operands live over different quivers")
    quiver = x.quiver
    out = {}
    for p, cp in x.items():
        for q, cq in y.items():
            pq = compose_paths(quiver, p, q)
            if pq is not None:
                add_into(out, pq, cp * cq)
    return x._with_terms(out)


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


def parse_quiver(text: str) -> Quiver:
    """Parse the canonical quiver file format (JSON with vertices/arrows)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QuiverFormatError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from None
    _require(isinstance(doc, dict), "top level must be an object", "document")
    for key in doc:
        _require(key in ("vertices", "arrows"), f"unknown field {key!r}", "document")
    _require("vertices" in doc, "missing field 'vertices'", "document")
    _require("arrows" in doc, "missing field 'arrows'", "document")
    raw_vertices = doc["vertices"]
    _require(isinstance(raw_vertices, list), "expected a list", "vertices")
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
    arrows = []
    seen_arrows = set()
    vindex = {v: i for i, v in enumerate(vertices)}
    for i, rec in enumerate(raw_arrows):
        loc = f"arrows[{i}]"
        _require(isinstance(rec, dict), "expected an object", loc)
        for key in rec:
            _require(key in ("name", "from", "to"), f"unknown field {key!r}", loc)
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
