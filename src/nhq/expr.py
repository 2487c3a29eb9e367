"""The shared expression grammar and canonical printers.

Letters are arrow names with a trailing ' for the reverse; '.' concatenates
(right-to-left composition, leftmost letter applied last); e<vertex> is a
trivial path; [ ... ] takes the necklace class; scalars are rationals p/q
and h is the deformation parameter.  Quantum-algebra expressions use
explicit height pairs (a,3), juxtaposition within a component, and '&'
between symmetric factors.  Every printer here emits a canonical form that
re-parses to an equal element.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExpressionError
from .necklace import (
    HH0Element,
    Necklace,
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


def _parse_rational(stream: _Stream, num: int) -> HBarPolynomial:
    """The scalar num, or num/den when a '/' follows; den must be nonzero."""
    if stream.peek()[1] != "/":
        return HBarPolynomial.constant(num)
    stream.next()
    dkind, dval, dpos = stream.next()
    if dkind != "int":
        raise ExpressionError("expected a denominator", dpos)
    if int(dval) == 0:
        raise ExpressionError("division by zero", dpos)
    return HBarPolynomial.constant(Fraction(num, int(dval)))


# ---------------------------------------------------------------------------
# Algebra expressions (paths and necklace classes)

_SCALAR, _PATH, _HH0 = "scalar", "path", "hh0"


class _Evaluator:
    def __init__(self, quiver: Quiver, text: str):
        self.quiver = quiver
        self.stream = _Stream(tokenize(text), len(text))

    def run(self):
        value = self.expr()
        if not self.stream.done():
            _, val, pos = self.stream.peek()
            raise ExpressionError(f"unexpected trailing {val!r}", pos)
        return value

    def expr(self):
        kind, value = self.term()
        while True:
            tkind, tval, _ = self.stream.peek()
            if tval not in ("+", "-"):
                return kind, value
            self.stream.next()
            rkind, rvalue = self.term()
            if tval == "-":
                rvalue = -rvalue
            kind, value = self._add(kind, value, rkind, rvalue)

    def term(self):
        kind, value = self.unary()
        while True:
            _, tval, pos = self.stream.peek()
            if tval not in ("*", "."):
                return kind, value
            self.stream.next()
            rkind, rvalue = self.unary()
            kind, value = self._mul(kind, value, rkind, rvalue, pos)

    def unary(self):
        _, tval, _ = self.stream.peek()
        if tval == "-":
            self.stream.next()
            kind, value = self.unary()
            return kind, -value
        return self.atom()

    def atom(self):
        kind, val, pos = self.stream.next()
        if kind == "int":
            return self._maybe_power(_SCALAR, _parse_rational(self.stream, int(val)))
        if kind == "name":
            return self._resolve_name(val, pos)
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
        raise ExpressionError(f"unexpected {val!r}", pos)

    def _maybe_power(self, kind, value):
        if self.stream.peek()[1] != "^":
            return kind, value
        _, _, pos = self.stream.next()
        ekind, eval_, epos = self.stream.next()
        if ekind != "int":
            raise ExpressionError("expected an integer exponent", epos)
        exponent = int(eval_)
        if kind == _SCALAR:
            out = HBarPolynomial.one()
            for _ in range(exponent):
                out = out * value
            return kind, out
        if kind == _PATH:
            out = PathAlgebraElement.unit(self.quiver)
            for _ in range(exponent):
                out = path_mul(out, value)
            return kind, out
        raise ExpressionError("exponent applies to scalars and paths only", pos)

    def _resolve_name(self, name, pos):
        quiver = self.quiver
        if name == "h" and not quiver.has_arrow("h"):
            return self._maybe_power(_SCALAR, HBarPolynomial.h())
        if quiver.has_arrow(name):
            letter = Letter(quiver.arrow_index(name), False)
            if self.stream.peek()[1] == "'":
                self.stream.next()
                letter = letter.star()
            return self._maybe_power(
                _PATH, PathAlgebraElement.of_path(quiver, Path((letter,)))
            )
        if name.startswith("e") and quiver.has_vertex(name[1:]):
            vertex = quiver.vertex_index(name[1:])
            return (_PATH, PathAlgebraElement.trivial(quiver, vertex))
        raise ExpressionError(f"unknown name {name!r}", pos)

    def _add(self, k1, v1, k2, v2):
        if k1 == k2:
            return k1, v1 + v2
        if {k1, k2} == {_SCALAR, _PATH}:
            unit = PathAlgebraElement.unit(self.quiver)
            a = v1 if k1 == _PATH else unit.scale(v1)
            b = v2 if k2 == _PATH else unit.scale(v2)
            return _PATH, a + b
        raise ExpressionError("cannot add a necklace class to a path or scalar")

    def _mul(self, k1, v1, k2, v2, pos):
        if k1 == _SCALAR and k2 == _SCALAR:
            return _SCALAR, v1 * v2
        if k1 == _SCALAR:
            return k2, v2.scale(v1)
        if k2 == _SCALAR:
            return k1, v1.scale(v2)
        if k1 == _PATH and k2 == _PATH:
            return _PATH, path_mul(v1, v2)
        raise ExpressionError("necklace classes have no product", pos)


def parse_path_element(quiver: Quiver, text: str) -> PathAlgebraElement:
    kind, value = _Evaluator(quiver, text).run()
    if kind == _PATH:
        return value
    if kind == _SCALAR:
        return PathAlgebraElement.unit(quiver).scale(value)
    raise ExpressionError("expected a path-algebra expression")


def parse_hh0_element(quiver: Quiver, text: str) -> HH0Element:
    kind, value = _Evaluator(quiver, text).run()
    if kind != _HH0:
        raise ExpressionError("expected a necklace-class expression like [x.y']")
    return value


# ---------------------------------------------------------------------------
# Quantum-algebra expressions


def _parse_scalar_tokens(stream: _Stream, quiver: Quiver):
    """Scalar factor: rational, h power, or a parenthesized scalar sum."""
    kind, val, pos = stream.next()
    if kind == "int":
        return _parse_rational(stream, int(val))
    if kind == "name" and val == "h":
        power = 1
        if stream.peek()[1] == "^":
            stream.next()
            ekind, eval_, epos = stream.next()
            if ekind != "int":
                raise ExpressionError("expected an integer exponent", epos)
            power = int(eval_)
        return HBarPolynomial.h(power)
    if val == "(":
        total = _parse_scalar_sum(stream, quiver)
        stream.expect(")")
        return total
    raise ExpressionError(f"expected a scalar, found {val!r}", pos)


def _parse_scalar_sum(stream: _Stream, quiver: Quiver):
    sign = 1
    if stream.peek()[1] == "-":
        stream.next()
        sign = -1
    total = _parse_scalar_product(stream, quiver) * sign
    while stream.peek()[1] in ("+", "-"):
        _, op, _ = stream.next()
        piece = _parse_scalar_product(stream, quiver)
        total = total + (piece if op == "+" else -piece)
    return total


def _parse_scalar_product(stream: _Stream, quiver: Quiver):
    total = _parse_scalar_tokens(stream, quiver)
    while stream.peek()[1] == "*":
        stream.next()
        total = total * _parse_scalar_tokens(stream, quiver)
    return total


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
    stream = _Stream(tokenize(text), len(text))
    total = QPAElement(quiver)
    sign = 1
    if stream.peek()[1] == "-":
        stream.next()
        sign = -1
    total = total + _parse_qpa_term(stream, quiver).scale(sign)
    while not stream.done():
        _, op, pos = stream.next()
        if op not in ("+", "-"):
            raise ExpressionError(f"unexpected {op!r}", pos)
        piece = _parse_qpa_term(stream, quiver)
        total = total + (piece if op == "+" else -piece)
    return total


def _parse_qpa_term(stream: _Stream, quiver: Quiver) -> QPAElement:
    coeff = HBarPolynomial.one()
    config = None
    while True:
        kind, val, pos = stream.peek()
        if val == "(" and _looks_like_height_pair(stream, quiver) or (
            kind == "name" and val.startswith("e") and quiver.has_vertex(val[1:])
        ):
            if config is not None:
                raise ExpressionError("one configuration per summand", pos)
            config = _parse_config(stream, quiver)
        else:
            coeff = coeff * _parse_scalar_tokens(stream, quiver)
        nxt = stream.peek()[1]
        if nxt == "*":
            stream.next()
            continue
        break
    if config is None:
        cfg = HeightConfiguration((), ())
        return QPAElement(quiver, {cfg: coeff})
    components, idempotents, heights = config
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
                _, name, npos = stream.next()
                letter = Letter(quiver.arrow_index(name), False)
                if stream.peek()[1] == "'":
                    stream.next()
                    letter = letter.star()
                stream.expect(",")
                hkind, hval, hpos = stream.next()
                if hkind != "int":
                    raise ExpressionError("expected an integer height", hpos)
                stream.expect(")")
                pairs.append((letter, int(hval)))
                heights.append(int(hval))
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
    return int(rval), int(cval)


def _parse_operator_sum(stream, quiver, dim, parse_factor, one):
    sign = 1
    if stream.peek()[1] == "-":
        stream.next()
        sign = -1
    total = _parse_operator_term(stream, quiver, dim, parse_factor, one).scale(sign)
    while stream.peek()[1] in ("+", "-"):
        _, op, _ = stream.next()
        piece = _parse_operator_term(stream, quiver, dim, parse_factor, one)
        total = total + (piece if op == "+" else -piece)
    return total


def _parse_operator_term(stream, quiver, dim, parse_factor, one):
    acc = one
    while True:
        acc = acc * parse_factor(stream)
        if stream.peek()[1] == "*":
            stream.next()
            continue
        return acc


def parse_weyl_element(quiver: Quiver, dim, text: str) -> WeylElement:
    """Parse operator syntax: [a]_{p,q} tokens, d(a)_{p,q} derivatives, h."""
    stream = _Stream(tokenize(text), len(text))
    one = WeylElement.constant(quiver, dim, 1)

    def factor(stream):
        kind, val, pos = stream.peek()
        if val == "[":
            stream.next()
            nkind, name, npos = stream.next()
            if nkind != "name" or not quiver.has_arrow(name):
                raise ExpressionError(f"unknown arrow {name!r}", npos)
            stream.expect("]")
            row, col = _parse_entry_indices(stream)
            out = WeylElement.position(quiver, dim, quiver.arrow_index(name), row, col)
        elif kind == "name" and val == "d" and stream.peek(1)[1] == "(":
            stream.next()
            stream.expect("(")
            nkind, name, npos = stream.next()
            if nkind != "name" or not quiver.has_arrow(name):
                raise ExpressionError(f"unknown arrow {name!r}", npos)
            stream.expect(")")
            row, col = _parse_entry_indices(stream)
            out = WeylElement.derivative(quiver, dim, quiver.arrow_index(name), row, col)
        else:
            return one.scale(_parse_scalar_tokens(stream, quiver))
        if stream.peek()[1] == "^":
            stream.next()
            ekind, eval_, epos = stream.next()
            if ekind != "int":
                raise ExpressionError("expected an integer exponent", epos)
            power = out
            for _ in range(int(eval_) - 1):
                power = power * out
            out = power
        return out

    result = _parse_operator_sum(stream, quiver, dim, factor, one)
    if not stream.done():
        _, val, pos = stream.peek()
        raise ExpressionError(f"unexpected trailing {val!r}", pos)
    return result


def parse_poly_element(quiver: Quiver, dim, text: str) -> PolyElement:
    """Parse coordinate syntax: (a)_{p,q} and (a')_{p,q} factors."""
    stream = _Stream(tokenize(text), len(text))
    one = PolyElement.constant(quiver, dim, 1)

    def factor(stream):
        kind, val, pos = stream.peek()
        if val == "(" and stream.peek(1)[0] == "name" and quiver.has_arrow(stream.peek(1)[1]):
            stream.next()
            _, name, _ = stream.next()
            starred = False
            if stream.peek()[1] == "'":
                stream.next()
                starred = True
            stream.expect(")")
            row, col = _parse_entry_indices(stream)
            out = PolyElement.coordinate(
                quiver, dim, quiver.arrow_index(name), starred, row, col
            )
            if stream.peek()[1] == "^":
                stream.next()
                ekind, eval_, epos = stream.next()
                if ekind != "int":
                    raise ExpressionError("expected an integer exponent", epos)
                power = out
                for _ in range(int(eval_) - 1):
                    power = power * out
                out = power
            return out
        scalar = _parse_scalar_tokens(stream, quiver)
        if scalar.degree > 0:
            raise ExpressionError("polynomials have no h dependence", pos)
        return one.scale(scalar.constant_term())

    result = _parse_operator_sum(stream, quiver, dim, factor, one)
    if not stream.done():
        _, val, pos = stream.peek()
        raise ExpressionError(f"unexpected trailing {val!r}", pos)
    return result


# ---------------------------------------------------------------------------
# Printers


def format_hbar(p: HBarPolynomial) -> str:
    return str(p)


def _is_single_term(p: HBarPolynomial) -> bool:
    return sum(1 for c in p.coeffs if c) == 1


def _coeff_body(p: HBarPolynomial, body: str) -> str:
    """Render p * body with minimal punctuation; p must be printable inline."""
    if p == HBarPolynomial.one():
        return body
    if p == -HBarPolynomial.one():
        return f"-{body}"
    if _is_single_term(p):
        return f"{p}*{body}"
    return f"({p})*{body}"


def _join_terms(pieces) -> str:
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def format_path(quiver: Quiver, path: Path) -> str:
    if path.is_trivial:
        return "e" + quiver.vertices[path.vertex]
    return ".".join(letter.name(quiver) for letter in path.letters)


def _path_key(path: Path):
    if path.is_trivial:
        return (0, path.vertex, ())
    return (1, len(path.letters), path.letters)


def format_path_element(x: PathAlgebraElement) -> str:
    pieces = [
        _coeff_body(coeff, format_path(x.quiver, path))
        for path, coeff in sorted(x.items(), key=lambda kv: _path_key(kv[0]))
    ]
    return _join_terms(pieces)


def format_necklace(quiver: Quiver, n: Necklace) -> str:
    if n.is_idempotent:
        return f"[e{quiver.vertices[n.vertex]}]"
    return "[" + ".".join(letter.name(quiver) for letter in n.letters) + "]"


def format_hh0(x: HH0Element) -> str:
    pieces = [
        _coeff_body(coeff, format_necklace(x.quiver, necklace))
        for necklace, coeff in sorted(x.items(), key=lambda kv: necklace_key(kv[0]))
    ]
    return _join_terms(pieces)


def format_sym_monomial(quiver: Quiver, monomial) -> str:
    if not monomial:
        return "1"
    return " & ".join(format_necklace(quiver, n) for n in monomial)


def format_sym(x: SymElement) -> str:
    pieces = [
        _coeff_body(coeff, format_sym_monomial(x.quiver, monomial))
        for monomial, coeff in sorted(
            x.items(), key=lambda kv: tuple(necklace_key(n) for n in kv[0])
        )
    ]
    return _join_terms(pieces)


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
    pieces = []
    for cfg, coeff in sorted(x.items(), key=lambda kv: _config_key(kv[0])):
        body = format_config(x.quiver, cfg)
        if body == "1":
            pieces.append(format_hbar(coeff) if _is_single_term(coeff) or not coeff else f"({coeff})")
        else:
            pieces.append(_coeff_body(coeff, body))
    return _join_terms(pieces)


def _format_opvar(quiver: Quiver, var, exp: int, derivative: bool) -> str:
    arrow, row, col = var
    name = quiver.arrows[arrow].name
    body = f"d({name})_{{{row},{col}}}" if derivative else f"[{name}]_{{{row},{col}}}"
    return body if exp == 1 else f"{body}^{exp}"


def format_weyl(x: WeylElement) -> str:
    quiver = x.quiver
    pieces = []
    for (pos, der), coeff in sorted(
        x.items(),
        key=lambda kv: (
            sum(e for _, e in kv[0][0]) + sum(e for _, e in kv[0][1]),
            kv[0],
        ),
    ):
        factors = [_format_opvar(quiver, v, e, False) for v, e in pos]
        factors += [_format_opvar(quiver, v, e, True) for v, e in der]
        if not factors:
            pieces.append(
                format_hbar(coeff) if _is_single_term(coeff) else f"({coeff})"
            )
        else:
            pieces.append(_coeff_body(coeff, "*".join(factors)))
    return _join_terms(pieces)


def format_poly(x: PolyElement) -> str:
    quiver = x.quiver
    pieces = []
    for mono, coeff in sorted(
        x.items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0])
    ):
        factors = []
        for (arrow, starred, row, col), exp in mono:
            name = quiver.arrows[arrow].name + ("'" if starred else "")
            body = f"({name})_{{{row},{col}}}"
            factors.append(body if exp == 1 else f"{body}^{exp}")
        if not factors:
            pieces.append(str(coeff))
        else:
            body = "*".join(factors)
            if coeff == 1:
                pieces.append(body)
            elif coeff == -1:
                pieces.append(f"-{body}")
            else:
                pieces.append(f"{coeff}*{body}")
    return _join_terms(pieces)


_PRINTERS = {
    PathAlgebraElement: format_path_element,
    HH0Element: format_hh0,
    SymElement: format_sym,
    QPAElement: format_qpa,
    WeylElement: format_weyl,
    PolyElement: format_poly,
}


def format_element(x) -> str:
    """The canonical printer of ``x``'s element type, e.g. for a residual."""
    return _PRINTERS[type(x)](x)
