"""Sparse free-module elements shared by all the algebra layers.

Every element type in the package is a finite map from basis keys to exact
coefficients with no stored zeros; this base class holds the common add,
subtract, and scale machinery.  Subclasses carry their own context (the
quiver, possibly a dimension vector) in their ``__slots__`` and their own
products.

The public constructors coerce every coefficient to the ring's type, drop
zeros and validate their keys.  Arithmetic results skip all of that through
``_with_terms``, which trusts its argument: a fresh dict whose values are
nonzero and already of the ring's type, never another element's ``terms``.
"""

from __future__ import annotations

from .errors import MismatchError
from .rings import HBarPolynomial


class LinearCombination:
    """Finite formal linear combination over an exact coefficient ring."""

    __slots__ = ("terms",)

    #: coefficient coercion; subclasses with Fraction coefficients override
    _coerce = staticmethod(HBarPolynomial.coerce)

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, val in items:
                val = self._coerce(val)
                if not val:
                    continue
                if key in data:
                    val = data[key] + val
                    if val:
                        data[key] = val
                    else:
                        del data[key]
                else:
                    data[key] = val
        object.__setattr__(self, "terms", data)

    # Element context ------------------------------------------------------

    def _context(self) -> tuple:
        """The subclass's own slot values: ``(quiver,)`` or ``(quiver, dim)``."""
        return tuple([getattr(self, name) for name in self.__slots__])

    def _with_terms(self, terms) -> "LinearCombination":
        """An element of the same type and context holding ``terms`` as given,
        with no coercion or zero filtering (see the module docstring)."""
        out = object.__new__(type(self))
        for name in self.__slots__:
            object.__setattr__(out, name, getattr(self, name))
        object.__setattr__(out, "terms", terms)
        return out

    def _check_compatible(self, other) -> None:
        if type(other) is not type(self) or self._context() != other._context():
            raise MismatchError(
                f"incompatible operands: {type(self).__name__} vs {type(other).__name__}"
            )

    # Generic structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return self.terms.items()

    def coefficient(self, key):
        return self.terms.get(key, self._coerce(0))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._context() == other._context() and self.terms == other.terms

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            cur = out.get(key)
            val = val if cur is None else cur + val
            if val:
                out[key] = val
            elif cur is not None:
                del out[key]
        return self._with_terms(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._with_terms({k: -v for k, v in self.terms.items()})

    def scale(self, c):
        c = self._coerce(c)
        if not c:
            return self._with_terms({})
        return self._with_terms({k: v * c for k, v in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        body = ", ".join(f"{k!r}: {v}" for k, v in self.terms.items())
        return f"{type(self).__name__}({{{body}}})"


def add_into(data: dict, key, value) -> None:
    """Accumulate ``value`` at ``key`` in a coefficient dict, dropping zeros."""
    cur = data.get(key)
    value = value if cur is None else cur + value
    if value:
        data[key] = value
    elif cur is not None:
        del data[key]
