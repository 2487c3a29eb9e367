"""The work ledger: every bound nhq chooses, the bounded cache type they
size, and ``check``, the one comparison of an amount against its bound.

Each kernel counts its own amount and hands it to ``check`` with the bound,
read as an attribute of this module at call time, so one change here
reaches every reader.  The capacity of the ``chr`` letter code is not
chosen and stays in ``quiver`` (``MAX_ARROWS``, ``MAX_VERTICES``).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import WorkLimitError

#: Deepest bracket nesting the tokenizer accepts.  The parsers descend one
#: level per bracket, so deeper input is refused before it can exhaust the
#: interpreter's recursion limit.
MAX_NESTING = 100

#: Largest exponent ``^n`` the parsers accept.  A larger one is refused at
#: parse time, before any power is formed.
MAX_EXPONENT = 4096

#: Most letters the merges of one necklace bracket, or the tensor terms of
#: one double bracket, may hold, as counted by ``_check_merge_letters``.
#: Output and time grow with this count, so a larger bracket is refused with
#: ``WorkLimitError`` (a ``DimensionError``) before any merge is formed.
MAX_MERGE_LETTERS = 1 << 24

#: Largest number of index assignments (the brute-force term count, the
#: product of the index ranges) a contraction accepts.  The accumulated
#: terms grow with this count, not with the O(m d^3) triples of its plan
#: (``repspace._plan``), so a larger contraction is refused with
#: ``WorkLimitError`` (a ``DimensionError``) before any plan or product.
#: It also bounds the term pairs of each product a parsed power forms.
MAX_INDEX_ASSIGNMENTS = 1 << 20

#: Most height swaps the kernel may compute for one call of ``straighten``,
#: ``qpa_mul``, ``moment_lift``, ``ideal_generator`` or
#: ``ideal_normal_forms`` (one call per generator, whatever its
#: parameters); past it the call raises ``WorkLimitError``.  With cold
#: caches, the benchmark and the golden CLI set need at most about 2,000
#: swaps per call; an alternating Jordan word of 18 letters with heights
#: shuffled by ``random.Random(0)`` needs 146,586 and one of 20 letters
#: 450,106 (1.3 s and 4.2 s of work with cold caches on a 2-core Xeon,
#: Python 3.11).
MAX_REWRITES = 1 << 18

#: Entries kept by each of the two result caches (``GenerationalCache``),
#: the default-strategy normal forms of ``schedler`` (``_normal_form``) and
#: the one trace cache of ``repspace`` (``_packed_trace``).  Each keeps its
#: entries in a young and an old generation of at most ``CACHE_SIZE // 2``
#: entries and ``CACHE_WEIGHT // 2`` weight each: a store into a full young
#: generation makes it the old one and drops the old one, and a read moves
#: an old entry to the young generation, so an entry survives at least
#: ``CACHE_SIZE // 2`` stores after its last read while they weigh less
#: than ``CACHE_WEIGHT // 2``.  The count bounds the keys and dict slots,
#: the weight the values: one entry can hold a million pairs.  The
#: contraction plans of ``repspace`` (``_plans``) are kept within the same
#: count, their weight bounded by ``PLAN_WEIGHT``.
CACHE_SIZE = 1 << 16

#: Most weight each of the two result caches holds: the (key, coefficient)
#: pairs of its values, at most half of it in each generation
#: (``GenerationalCache``).  It is a budget of 256 MiB of values per cache
#: at 64 B a pair, rounded up from the bytes a held pair takes under
#: ``tracemalloc`` (Python 3.11): about 60 B in the straighten cache after
#: 60 pbw benchmark rounds (seed 1), and 57-61 B in the trace cache after a
#: cold ``solve_chi`` of two_loop (3,) at length 4, two_loop (2,) at 5 or
#: jordan (3,) at 6.  The benchmark's loads hold far less: at most 140,010
#: pairs in the straighten cache (pbw) and 29,952 in the trace cache
#: (qtrace).
CACHE_WEIGHT = 1 << 22

#: Most (source, token, destination) triples the plan cache
#: ``repspace._plans`` holds, at most half of them in each generation.  It
#: is a budget of 32 MiB of plans at 32 B a triple, rounded up from the
#: bytes a held triple takes under ``tracemalloc`` (Python 3.11): 24-31 B
#: in a plan's own tuples (one slot per int, state and token numbers below
#: 257 being shared small ints), 32.5 B with the keys and entries of the
#: plans of a cold ``solve_chi`` of jordan (3,) at length 6.  The
#: benchmark's loads hold at most 1,112 triples (51 plans, 26 seed-1
#: reduction rounds).
PLAN_WEIGHT = 1 << 20


def check(amount: int, limit: int, message: str, error=WorkLimitError, *args) -> None:
    """Refuse ``amount`` past ``limit``: raise ``error(text, *args)``, the
    text being ``message`` with its ``{amount}`` and ``{limit}`` filled in.
    ``error`` is ``WorkLimitError`` (exit 3), or for a bound on input a parse
    error (exit 2), ``args`` its position in the text or the file."""
    if amount > limit:
        raise error(message.format(amount=amount, limit=limit), *args)


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize weight maxweight")


def _flat_weight(value) -> int:
    """The (key, coefficient) pairs of a flat value ``(key0, c0, key1, c1, ...)``."""
    return len(value) >> 1


class GenerationalCache:
    """A bounded memo, read by ``get`` and stored by ``put``, kept in two
    plain dicts, a young and an old generation, with no per-entry link.

    Two bounds hold at once: at most ``maxsize`` entries and at most
    ``maxweight`` held weight (by default ``CACHE_WEIGHT``), the sum over
    the entries of ``weight(value)``, by default the (key, coefficient)
    pairs a value holds.  Each
    generation takes half of each.  ``put`` stores into the young dict; a
    store that finds it holding ``maxsize // 2`` entries, or whose value
    would take its weight past ``maxweight // 2``, first makes it the old
    dict, dropping the previous old dict.  A value heavier than
    ``maxweight // 2`` fits in no generation: ``put`` drops the entry its
    key had and keeps nothing, and the reader still returns the value it
    made.  A read that finds its key in the old dict moves the entry to the
    young one.  So the cache never holds more than ``maxsize`` entries
    (``maxsize`` >= 2) or more than ``maxweight`` weight, and an entry
    survives at least ``maxsize // 2`` stores after its last read while
    the stores weigh less than ``maxweight // 2``: least-recently-used
    eviction to within a factor of two, at the cost of one dict slot an
    entry (about 31 B, where an ``lru_cache`` entry takes about 87 B).

    No value is None.  ``get(key)`` is one dict read on a young hit and
    returns None on a miss, storing nothing; a reader makes the value
    itself and ``put``s it, so a computation that raises stores nothing.
    ``cache_info()`` adds to ``lru_cache``'s counts the ``weight`` held,
    kept per generation and dropped with it, and its bound ``maxweight``;
    ``cache_parameters()`` gives both bounds.  Both bounds are read when
    the cache is made."""

    # the counts and generations are slots, read at every lookup
    __slots__ = (
        "maxsize",
        "maxweight",
        "_weight",
        "_young",
        "_old",
        "_young_weight",
        "_old_weight",
        "_hits",
        "_misses",
    )

    def __init__(self, maxsize: int, weight=_flat_weight, maxweight: int | None = None):
        self.maxsize = maxsize
        self.maxweight = CACHE_WEIGHT if maxweight is None else maxweight
        self._weight = weight
        self.cache_clear()

    def get(self, key):
        value = self._young.get(key)
        if value is None:
            value = self._old.pop(key, None)
            if value is None:
                self._misses += 1
                return None
            self._old_weight -= self._weight(value)
            self.put(key, value)
        self._hits += 1
        return value

    def put(self, key, value) -> None:
        young = self._young
        if key in young:
            self._young_weight -= self._weight(young.pop(key))
        elif key in self._old:
            self._old_weight -= self._weight(self._old.pop(key))
        weight, half = self._weight(value), self.maxweight >> 1
        if len(young) >= self.maxsize >> 1 or self._young_weight + weight > half:
            if weight > half:
                return
            self._old, self._old_weight = young, self._young_weight
            self._young = young = {}
            self._young_weight = 0
        young[key] = value
        self._young_weight += weight

    def cache_clear(self) -> None:
        self._young, self._old = {}, {}
        self._young_weight = self._old_weight = 0
        self._hits = self._misses = 0

    def cache_info(self) -> CacheInfo:
        return CacheInfo(
            self._hits,
            self._misses,
            self.maxsize,
            len(self._young) + len(self._old),
            self._young_weight + self._old_weight,
            self.maxweight,
        )

    def cache_parameters(self) -> dict:
        return {"maxsize": self.maxsize, "maxweight": self.maxweight, "typed": False}
