"""Exception types shared across the package, and the one index check
whose failure every public entry reports with one of them."""


class QuiverFormatError(ValueError):
    """Malformed quiver description.  ``location`` points at the offending field."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class ExpressionError(ValueError):
    """Malformed expression.  ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int = -1):
        self.position = position
        if position >= 0:
            super().__init__(f"position {position}: {message}")
        else:
            super().__init__(message)


class CompositionError(ValueError):
    """A word or frame that is required to compose does not."""


class MismatchError(ValueError):
    """Operands built over different quivers (or dimension vectors)."""


class DimensionError(ValueError):
    """Matrix index out of range or incompatible dimension vectors."""


def _in_range(value, top, low: int = 1) -> bool:
    """Whether ``value`` is an ``int`` (not a ``bool``) in [low, top]."""
    return type(value) is int and low <= value <= top


class WorkLimitError(DimensionError):
    """A computation would exceed one of the package's work limits.  It is
    a ``DimensionError``, so the CLI exits 3 on it."""
