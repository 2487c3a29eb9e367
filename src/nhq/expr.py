"""The shared expression grammar and canonical printers.

Letters are arrow names with a trailing ' for the reverse; '.' concatenates
(right-to-left composition, leftmost letter applied last); e<vertex> is a
trivial path; [ ... ] takes the necklace class; scalars are rationals p/q
and h is the deformation parameter.  Quantum-algebra expressions use
explicit height pairs (a,3), juxtaposition within a component, and '&'
between symmetric factors.  Every printer here emits a canonical form that
re-parses to an equal element.  Text past a bound of ``work`` is refused.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from functools import partial

from . import work
from .errors import DimensionError, ExpressionError
from .necklace import (
    HH0Element,
    Necklace,
    TensorElement,
    natural_projection,
    necklace_key,
)
from .quiver import Letter, Path, PathAlgebraElement, Quiver, path_mul
from .repspace import PolyElement, WeylElement
from .rings import HBarPolynomial
from .schedler import HeightConfiguration, QPAElement, SymElement, make_configuration, straighten

# ---------------------------------------------------------------------------
# Tokenizer

_SYMBOLS = set("+-*/.&[](),^'{}")

def _is_word_char(ch: str) -> bool:
    """ASCII letters, digits and '_': names and integers are ASCII only."""
    return ch.isascii() and (ch.isalnum() or ch == "_")


def tokenize(text: str):
    """Yield (kind, value, position) with kind in name/int/sym."""
    out = []
    i = 0
    n = len(text)
    depth = 0
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if _is_word_char(ch):
            j = i
            while j < n and _is_word_char(text[j]):
                j += 1
            chunk = text[i:j]
            out.append(("int" if chunk.isdigit() else "name", chunk, i))
            i = j
            continue
        if ch in _SYMBOLS:
            if ch in "([{":
                depth += 1
                work.check(depth, work.MAX_NESTING, "brackets nest deeper than {limit} levels", ExpressionError, i)
            elif ch in ")]}":
                depth -= 1
            out.append(("sym", ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    return out


class _Stream:
    def __init__(self, tokens, length):
        self.tokens = tokens
        self.k = 0
        self.length = length

    def peek(self, ahead=0):
        k = self.k + ahead
        return self.tokens[k] if k < len(self.tokens) else (None, None, self.length)

    def next(self):
        tok = self.peek()
        self.k += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ExpressionError(f"expected {value!r}", pos)

    def done(self):
        return self.k >= len(self.tokens)


def _int_value(val: str, pos: int) -> int:
    """The value of the integer token ``val`` at ``pos``.  ``int`` refuses a
    literal past Python's digit limit (4,300 digits by default)."""
    try:
        return int(val)
    except ValueError:
        raise ExpressionError(f"integer literal of {len(val)} digits is too long", pos) from None


def _read_exponent(stream: _Stream):
    """Consume ``^n`` and return n, or None when no ``^`` follows."""
    if stream.peek()[1] != "^":
        return None
    stream.next()
    kind, val, pos = stream.next()
    if kind != "int":
        raise ExpressionError("expected an integer exponent", pos)
    n = _int_value(val, pos)
    work.check(n, work.MAX_EXPONENT, f"exponent {val} is above the limit {{limit}}", ExpressionError, pos)
    return n


def _term_count(x) -> int:
    """Nonzero terms of an element, nonzero coefficients of an h-polynomial;
    a rational is one term."""
    if isinstance(x, Fraction):
        return 1
    if isinstance(x, HBarPolynomial):
        return sum(1 for c in x.coeffs if c)
    return len(x.terms)


def _power(x, n: int, one, pos: int, mul=operator.mul):
    """x^n by square-and-multiply; x^0 is ``one``, the unit of ``mul``.
    A product of more than ``work.MAX_INDEX_ASSIGNMENTS`` term pairs is
    refused before it is formed, as an error in the text at ``pos``."""
    out = one
    while n:
        if n & 1:
            out = _bounded_product(out, x, pos, mul)
        n >>= 1
        if n:
            x = _bounded_product(x, x, pos, mul)
    return out


def _bounded_product(a, b, pos: int, mul):
    # the product has at most |a|*|b| terms; refuse it unformed
    size_a, size_b = _term_count(a), _term_count(b)
    message = f"power needs a product of {size_a}*{size_b} terms, above the limit {{limit}}"
    work.check(size_a * size_b, work.MAX_INDEX_ASSIGNMENTS, message, ExpressionError, pos)
    return mul(a, b)


def _parse_rational(stream: _Stream, num: int) -> HBarPolynomial:
    """The scalar num, or num/den when a '/' follows; den must be nonzero."""
    if stream.peek()[1] != "/":
        return HBarPolynomial.constant(num)
    stream.next()
    dkind, dval, dpos = stream.next()
    if dkind != "int":
        raise ExpressionError("expected a denominator", dpos)
    den = _int_value(dval, dpos)
    if den == 0:
        raise ExpressionError("division by zero", dpos)
    return HBarPolynomial.constant(Fraction(num, den))


def _letter(stream: _Stream, quiver: Quiver) -> Letter:
    """Consume an arrow name the caller has checked, and a ' that stars it."""
    _, name, _ = stream.next()
    starred = stream.peek()[1] == "'"
    if starred:
        stream.next()
    return Letter(quiver.arrow_index(name), starred)


# ---------------------------------------------------------------------------
# The grammar skeleton: every sum and product is a left fold


def _fold(stream: _Stream, ops, operand, combine, acc=None):
    """Left fold over the binary operators ``ops``: each operator ``op`` at
    ``pos`` makes ``acc = combine(acc, op, operand(), pos)``.  ``acc``
    starts at a first ``operand()`` unless given."""
    if acc is None:
        acc = operand()
    while stream.peek()[1] in ops:
        _, op, pos = stream.next()
        acc = combine(acc, op, operand(), pos)
    return acc


def _add_or_subtract(acc, op, rhs, pos):
    return acc + (rhs if op == "+" else -rhs)


def _multiply(acc, op, rhs, pos):
    return acc * rhs


def _signed_sum(stream: _Stream, term):
    """``[-] term (+|- term)*``: a minus may lead the sum, not a factor in it."""
    negate = stream.peek()[1] == "-"
    if negate:
        stream.next()
    first = term()
    return _fold(stream, ("+", "-"), term, _add_or_subtract, -first if negate else first)


def _sum_of_products(stream: _Stream, factor):
    """A signed sum of products ``factor() * factor() * ...``."""
    return _signed_sum(stream, partial(_fold, stream, ("*",), factor, _multiply))


def _parse_all(text: str, parse):
    """``parse(stream)`` on the tokens of ``text``, which must use them all."""
    stream = _Stream(tokenize(text), len(text))
    value = parse(stream)
    if not stream.done():
        _, val, pos = stream.peek()
        raise ExpressionError(f"unexpected trailing {val!r}", pos)
    return value


# ---------------------------------------------------------------------------
# Algebra expressions (paths and necklace classes)

_SCALAR, _PATH, _HH0 = "scalar", "path", "hh0"


class _Evaluator:
    """Values are (kind, element) pairs; a minus may stand before any factor."""

    def __init__(self, quiver: Quiver, stream: _Stream):
        self.quiver = quiver
        self.stream = stream

    def expr(self):
        return _fold(self.stream, ("+", "-"), self.term, self._add)

    def term(self):
        return _fold(self.stream, ("*", "."), self.unary, self._mul)

    def unary(self):
        negate = False
        while self.stream.peek()[1] == "-":
            self.stream.next()
            negate = not negate
        kind, value = self.atom()
        return (kind, -value) if negate else (kind, value)

    def atom(self):
        kind, val, pos = self.stream.peek()
        if kind == "name":
            return self._resolve_name(val, pos)
        self.stream.next()
        if kind == "int":
            return self._maybe_power(_SCALAR, _parse_rational(self.stream, _int_value(val, pos)))
        if val == "(":
            inner = self.expr()
            self.stream.expect(")")
            return self._maybe_power(*inner)
        if val == "[":
            ikind, ivalue = self.expr()
            self.stream.expect("]")
            if ikind != _PATH:
                raise ExpressionError("necklace brackets need a path expression", pos)
            return (_HH0, natural_projection(ivalue))
        raise ExpressionError("unexpected end of expression" if kind is None else f"unexpected {val!r}", pos)

    def _maybe_power(self, kind, value):
        pos = self.stream.peek()[2]
        exponent = _read_exponent(self.stream)
        if exponent is None:
            return kind, value
        if kind == _SCALAR:
            return kind, _power(value, exponent, HBarPolynomial.one(), pos)
        if kind == _PATH:
            one = PathAlgebraElement.unit(self.quiver)
            return kind, _power(value, exponent, one, pos, path_mul)
        raise ExpressionError("exponent applies to scalars and paths only", pos)

    def _resolve_name(self, name, pos):
        quiver = self.quiver
        if name == "h" and not quiver.has_arrow("h"):
            self.stream.next()
            return self._maybe_power(_SCALAR, HBarPolynomial.h())
        if quiver.has_arrow(name):
            letter = _letter(self.stream, quiver)
            return self._maybe_power(
                _PATH, PathAlgebraElement.of_path(quiver, Path((letter,)))
            )
        if name.startswith("e") and quiver.has_vertex(name[1:]):
            self.stream.next()
            vertex = quiver.vertex_index(name[1:])
            return (_PATH, PathAlgebraElement.trivial(quiver, vertex))
        raise ExpressionError(f"unknown name {name!r}", pos)

    def _add(self, left, op, right, pos):
        (k1, v1), (k2, v2) = left, right
        if op == "-":
            v2 = -v2
        if k1 == k2:
            return k1, v1 + v2
        if {k1, k2} == {_SCALAR, _PATH}:
            unit = PathAlgebraElement.unit(self.quiver)
            a = v1 if k1 == _PATH else unit.scale(v1)
            b = v2 if k2 == _PATH else unit.scale(v2)
            return _PATH, a + b
        raise ExpressionError("cannot add a necklace class to a path or scalar")

    def _mul(self, left, op, right, pos):
        (k1, v1), (k2, v2) = left, right
        if k1 == _SCALAR and k2 == _SCALAR:
            return _SCALAR, v1 * v2
        if k1 == _SCALAR:
            return k2, v2.scale(v1)
        if k2 == _SCALAR:
            return k1, v1.scale(v2)
        if k1 == _PATH and k2 == _PATH:
            return _PATH, path_mul(v1, v2)
        raise ExpressionError("necklace classes have no product", pos)


def _evaluate(quiver: Quiver, text: str):
    return _parse_all(text, lambda stream: _Evaluator(quiver, stream).expr())


def parse_path_element(quiver: Quiver, text: str) -> PathAlgebraElement:
    kind, value = _evaluate(quiver, text)
    if kind == _PATH:
        return value
    if kind == _SCALAR:
        return PathAlgebraElement.unit(quiver).scale(value)
    raise ExpressionError("expected a path-algebra expression")


def parse_hh0_element(quiver: Quiver, text: str) -> HH0Element:
    kind, value = _evaluate(quiver, text)
    if kind != _HH0:
        raise ExpressionError("expected a necklace-class expression like [x.y']")
    return value


# ---------------------------------------------------------------------------
# Quantum-algebra expressions


def _parse_scalar_tokens(stream: _Stream, quiver: Quiver):
    """Scalar factor: rational, h power, or a parenthesized scalar sum."""
    kind, val, pos = stream.next()
    if kind == "int":
        return _parse_rational(stream, _int_value(val, pos))
    if kind == "name" and val == "h":
        power = _read_exponent(stream)
        return HBarPolynomial.h(1 if power is None else power)
    if val == "(":
        total = _sum_of_products(stream, partial(_parse_scalar_tokens, stream, quiver))
        stream.expect(")")
        return total
    found = "end of expression" if kind is None else repr(val)
    raise ExpressionError(f"expected a scalar, found {found}", pos)


def _looks_like_height_pair(stream: _Stream, quiver: Quiver) -> bool:
    kind, val, _ = stream.peek(1)
    if kind != "name" or not quiver.has_arrow(val):
        return False
    nxt = stream.peek(2)[1]
    if nxt == "'":
        return stream.peek(3)[1] == ","
    return nxt == ","


def parse_qpa_element(quiver: Quiver, text: str) -> QPAElement:
    """Parse a quantum-algebra expression and normalize it."""
    return _parse_all(
        text, lambda stream: _signed_sum(stream, partial(_parse_qpa_term, stream, quiver))
    )


def _parse_qpa_term(stream: _Stream, quiver: Quiver) -> QPAElement:
    configs = []

    def factor():
        # a configuration is a factor of coefficient one
        kind, val, pos = stream.peek()
        if val == "(" and _looks_like_height_pair(stream, quiver) or (
            kind == "name" and val.startswith("e") and quiver.has_vertex(val[1:])
        ):
            if configs:
                raise ExpressionError("one configuration per summand", pos)
            configs.append(_parse_config(stream, quiver))
            return HBarPolynomial.one()
        return _parse_scalar_tokens(stream, quiver)

    coeff = _fold(stream, ("*",), factor, _multiply)
    if not configs:
        cfg = HeightConfiguration((), ())
        return QPAElement(quiver, {cfg: coeff})
    components, idempotents, heights = configs[0]
    n = sum(len(c) for c in components)
    if sorted(heights) != list(range(1, n + 1)):
        raise ExpressionError(f"heights must be a permutation of 1..{n}")
    cfg = make_configuration(quiver, components, idempotents)
    return straighten(quiver, cfg).scale(coeff)


def _parse_config(stream: _Stream, quiver: Quiver):
    components = []
    idempotents = []
    heights = []
    while True:
        kind, val, pos = stream.peek()
        if kind == "name" and val.startswith("e") and quiver.has_vertex(val[1:]):
            stream.next()
            idempotents.append(quiver.vertex_index(val[1:]))
        elif val == "(" and _looks_like_height_pair(stream, quiver):
            pairs = []
            while stream.peek()[1] == "(" and _looks_like_height_pair(stream, quiver):
                stream.next()
                letter = _letter(stream, quiver)
                stream.expect(",")
                hkind, hval, hpos = stream.next()
                if hkind != "int":
                    raise ExpressionError("expected an integer height", hpos)
                stream.expect(")")
                height = _int_value(hval, hpos)
                pairs.append((letter, height))
                heights.append(height)
            components.append(tuple(pairs))
        else:
            raise ExpressionError("expected a height pair or idempotent factor", pos)
        if stream.peek()[1] == "&":
            stream.next()
            continue
        return components, idempotents, heights


# ---------------------------------------------------------------------------
# Operator and polynomial expressions (trace outputs)


def _parse_entry_indices(stream: _Stream):
    """Consume _{i,j} and return (i, j)."""
    kind, val, pos = stream.next()
    if (kind, val) != ("name", "_"):
        raise ExpressionError("expected _{i,j} indices", pos)
    stream.expect("{")
    rkind, rval, rpos = stream.next()
    if rkind != "int":
        raise ExpressionError("expected a row index", rpos)
    stream.expect(",")
    ckind, cval, cpos = stream.next()
    if ckind != "int":
        raise ExpressionError("expected a column index", cpos)
    stream.expect("}")
    return _int_value(rval, rpos), _int_value(cval, cpos)


def _entry(make, pos, *args):
    """``make(*args)``, one matrix-entry factor; an index outside its block
    is an error in the text at ``pos``."""
    try:
        return make(*args)
    except DimensionError as exc:
        raise ExpressionError(str(exc), pos) from None


def _with_exponent(stream: _Stream, factor, one):
    """``factor``, raised to the exponent when ``^n`` follows."""
    pos = stream.peek()[2]
    exponent = _read_exponent(stream)
    return factor if exponent is None else _power(factor, exponent, one, pos)


def parse_weyl_element(quiver: Quiver, dim, text: str) -> WeylElement:
    """Parse operator syntax: [a]_{p,q} tokens, d(a)_{p,q} derivatives, h."""
    one = WeylElement.constant(quiver, dim, 1)

    def factor(stream):
        kind, val, pos = stream.peek()
        if val == "[":
            make, close = WeylElement.position, "]"
        elif kind == "name" and val == "d" and stream.peek(1)[1] == "(":
            make, close = WeylElement.derivative, ")"
            stream.next()
        else:
            return one.scale(_parse_scalar_tokens(stream, quiver))
        stream.next()  # the opening bracket
        nkind, name, npos = stream.next()
        if nkind != "name" or not quiver.has_arrow(name):
            raise ExpressionError(f"unknown arrow {name!r}", npos)
        stream.expect(close)
        row, col = _parse_entry_indices(stream)
        out = _entry(make, pos, quiver, dim, quiver.arrow_index(name), row, col)
        return _with_exponent(stream, out, one)

    return _parse_all(text, lambda stream: _sum_of_products(stream, partial(factor, stream)))


def parse_poly_element(quiver: Quiver, dim, text: str) -> PolyElement:
    """Parse coordinate syntax: (a)_{p,q} and (a')_{p,q} factors."""
    one = PolyElement.constant(quiver, dim, 1)

    def factor(stream):
        kind, val, pos = stream.peek()
        if val == "(" and stream.peek(1)[0] == "name" and quiver.has_arrow(stream.peek(1)[1]):
            stream.next()
            letter = _letter(stream, quiver)
            stream.expect(")")
            row, col = _parse_entry_indices(stream)
            out = _entry(PolyElement.coordinate, pos, quiver, dim, *letter, row, col)
            return _with_exponent(stream, out, one)
        scalar = _parse_scalar_tokens(stream, quiver)
        if scalar.degree > 0:
            raise ExpressionError("polynomials have no h dependence", pos)
        return one.scale(scalar.constant_term())

    return _parse_all(text, lambda stream: _sum_of_products(stream, partial(factor, stream)))


# ---------------------------------------------------------------------------
# Printers


def format_hbar(p) -> str:
    """The text of a coefficient, an h-polynomial or a rational.  ``str``
    of an int refuses more digits than Python's limit (4,300 by default);
    such a coefficient is refused with DimensionError."""
    try:
        return str(p)
    except ValueError:
        raise DimensionError(
            f"coefficient has more than {sys.get_int_max_str_digits()} digits, "
            "above the limit for printing"
        ) from None


def _coeff_body(p, body: str) -> str:
    """Render p * body with minimal punctuation; p is an h-polynomial or a
    rational.  An empty body is the unit: the coefficient stands alone."""
    if body and p == 1:
        return body
    if body and p == -1:
        return f"-{body}"
    text = format_hbar(p) if _term_count(p) == 1 else f"({format_hbar(p)})"
    return f"{text}*{body}" if body else text


def _format_terms(x, body, key) -> str:
    """The terms of ``x`` in the order of ``key`` of their basis elements,
    each its coefficient times ``body`` of the basis element; 0 when none."""
    pieces = [
        _coeff_body(coeff, body(basis))
        for basis, coeff in sorted(x.items(), key=lambda kv: key(kv[0]))
    ]
    if not pieces:
        return "0"
    signed = (f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in pieces[1:])
    return pieces[0] + "".join(signed)


def format_path(quiver: Quiver, path: Path) -> str:
    if path.is_trivial:
        return "e" + quiver.vertices[path.vertex]
    return ".".join(letter.name(quiver) for letter in path.letters)


def _path_key(path: Path):
    if path.is_trivial:
        return (0, path.vertex, ())
    return (1, len(path.letters), path.letters)


def format_path_element(x: PathAlgebraElement) -> str:
    return _format_terms(x, partial(format_path, x.quiver), _path_key)


class _PerLetter(dict):
    """``text(letter)`` of each letter, made on its first lookup."""

    def __init__(self, text):
        super().__init__()
        self.text = text

    def __missing__(self, letter):
        value = self[letter] = self.text(letter)
        return value


def _path_repr(path: Path, reprs: _PerLetter) -> str:
    """``str(path)``, the dataclass repr, joined from cached letter reprs."""
    letters = path.letters
    inner = ", ".join(map(reprs.__getitem__, letters)) + ("," if len(letters) == 1 else "")
    return f"Path(letters=({inner}), vertex={path.vertex!r})"


def format_tensor(x: TensorElement) -> str:
    """Terms in the order of the ``str`` of their two paths.  Each letter's
    name and repr is made once per printed tensor."""
    quiver = x.quiver
    names, reprs = _PerLetter(lambda letter: letter.name(quiver)), _PerLetter(repr)

    def text(path):
        if path.is_trivial:
            return format_path(quiver, path)
        return ".".join(map(names.__getitem__, path.letters))

    def key(pq):
        return _path_repr(pq[0], reprs), _path_repr(pq[1], reprs)

    return _format_terms(x, lambda pq: f"{text(pq[0])} (x) {text(pq[1])}", key)


def format_necklace(quiver: Quiver, n: Necklace) -> str:
    if n.is_idempotent:
        return f"[e{quiver.vertices[n.vertex]}]"
    return "[" + ".".join(letter.name(quiver) for letter in n.letters) + "]"


def format_hh0(x: HH0Element) -> str:
    return _format_terms(x, partial(format_necklace, x.quiver), necklace_key)


def format_sym_monomial(quiver: Quiver, monomial) -> str:
    if not monomial:
        return "1"
    return " & ".join(format_necklace(quiver, n) for n in monomial)


def format_sym(x: SymElement) -> str:
    def body(monomial):
        return format_sym_monomial(x.quiver, monomial) if monomial else ""

    return _format_terms(x, body, lambda monomial: tuple(necklace_key(n) for n in monomial))


def format_config(quiver: Quiver, cfg: HeightConfiguration) -> str:
    if cfg.is_unit:
        return "1"
    factors = [
        "".join(f"({letter.name(quiver)},{h})" for letter, h in comp)
        for comp in cfg.components
    ]
    factors += [f"e{quiver.vertices[v]}" for v in cfg.idempotents]
    return " & ".join(factors)


def _config_key(cfg: HeightConfiguration):
    return (cfg.letter_count, len(cfg.components), cfg.components, cfg.idempotents)


def format_qpa(x: QPAElement) -> str:
    def body(cfg):
        return "" if cfg.is_unit else format_config(x.quiver, cfg)

    return _format_terms(x, body, _config_key)


def _format_opvar(quiver: Quiver, var, exp: int, derivative: bool) -> str:
    arrow, row, col = var
    name = quiver.arrows[arrow].name
    body = f"d({name})_{{{row},{col}}}" if derivative else f"[{name}]_{{{row},{col}}}"
    return body if exp == 1 else f"{body}^{exp}"


def format_weyl(x: WeylElement) -> str:
    def body(op):
        pos, der = op
        factors = [_format_opvar(x.quiver, v, e, False) for v, e in pos]
        factors += [_format_opvar(x.quiver, v, e, True) for v, e in der]
        return "*".join(factors)

    def key(op):
        return (sum(e for _, e in op[0]) + sum(e for _, e in op[1]), op)

    return _format_terms(x, body, key)


def format_poly(x: PolyElement) -> str:
    def body(mono):
        factors = []
        for (arrow, starred, row, col), exp in mono:
            name = x.quiver.arrows[arrow].name + ("'" if starred else "")
            factor = f"({name})_{{{row},{col}}}"
            factors.append(factor if exp == 1 else f"{factor}^{exp}")
        return "*".join(factors)

    return _format_terms(x, body, lambda mono: (sum(e for _, e in mono), mono))


_PRINTERS = {
    PathAlgebraElement: format_path_element,
    TensorElement: format_tensor,
    HH0Element: format_hh0,
    SymElement: format_sym,
    QPAElement: format_qpa,
    WeylElement: format_weyl,
    PolyElement: format_poly,
}


def format_element(x) -> str:
    """The canonical printer of ``x``'s element type, e.g. for a residual."""
    return _PRINTERS[type(x)](x)
