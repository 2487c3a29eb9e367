"""The tuple-keyed contraction kernel, kept as an oracle for the packed one.

``nhq.repspace`` contracts on monomials packed into ints.  This is the
same contraction on the tuple form of the rings' keys: a Weyl monomial is
``(pos, der)``, each a sorted tuple of ``((arrow, row, col), exp)``, and a
polynomial monomial a sorted tuple of ``((arrow, starred, row, col), exp)``.
Each token product builds the next tuple and adds it into a term dict with
``add_into``; coefficients are ``HBarPolynomial``s and ``Fraction``s.
The same loop on packed term dicts (``contract_packed``) is the index-tuple
kernel that the library's planned one replaced.
"""

import itertools
import math
from fractions import Fraction

from linear_oracle import add_into
from nhq import work
from nhq.repspace import PolyElement, WeylElement, _times, tau_pairs
from nhq.rings import HBarPolynomial


def bump(mono, var):
    """The sorted monomial ``mono`` times one more factor of ``var``."""
    for k, (w, exp) in enumerate(mono):
        if w == var:
            return mono[:k] + ((var, exp + 1),) + mono[k + 1 :]
        if var < w:
            return mono[:k] + ((var, 1),) + mono[k:]
    return mono + ((var, 1),)


def times_coordinate(acc, var, out) -> None:
    """Add acc * var into the term dict ``out``, var a coordinate variable."""
    for mono, c in acc.items():
        add_into(out, bump(mono, var), c)


def times_token(acc, token, out) -> None:
    """Add acc * token into the term dict ``out``, normal-ordered.

    ``token`` is ``(v, is_derivative)``.  A derivative appends d_v; a
    position x_v moves left past d_v^b in ``der``: the monomial (pos, der)
    gives (pos x_v, der) + b h (pos, der / d_v).
    """
    var, is_derivative = token
    if is_derivative:
        for (pos, der), c in acc.items():
            add_into(out, (pos, bump(der, var)), c)
        return
    for (pos, der), c in acc.items():
        add_into(out, (bump(pos, var), der), c)
        for k, (w, b) in enumerate(der):
            if w == var:
                rest = der[:k] + ((var, b - 1),) if b > 1 else der[:k]
                add_into(out, (pos, rest + der[k + 1 :]), (c * b).shift(1))
                break


def letter_entry(letter, quantum: bool):
    """The token of the (row, col) entry of a letter's matrix: the
    coordinate variable, or the operator token ``(v, is_derivative)`` with
    [a']_{row,col} = d/d(a)_{col,row}."""
    arrow, starred = letter
    if not quantum:
        return lambda row, col: (arrow, starred, row, col)
    if starred:
        return lambda row, col: ((arrow, col, row), True)
    return lambda row, col: ((arrow, row, col), False)


def contract(slots, ranges, unit, times, free=()):
    """``repspace._contract`` on tuple-keyed term dicts: ``times(acc, token,
    out)`` adds acc * token into ``out``, starting from ``unit``."""
    last = {}
    for t, (_, i, j) in enumerate(slots):
        last[i] = last[j] = t
    live = ()
    sums = {(): unit}
    for t, (entry, i, j) in enumerate(slots):
        new = tuple(v for v in dict.fromkeys((i, j)) if v not in live)
        grown = live + new
        live = tuple(v for v in grown if v in free or last[v] > t)
        at = [grown.index(v) for v in (i, j) + live]
        out = {}
        for key, acc in sums.items():
            for ext in itertools.product(*(ranges[v] for v in new)):
                ks = key + ext
                kept = tuple(ks[p] for p in at[2:])
                times(acc, entry(ks[at[0]], ks[at[1]]), out.setdefault(kept, {}))
        sums = out
    return {
        tuple(key[live.index(v)] for v in free): value for key, value in sums.items()
    }


def contract_packed(slots, ranges, mask: int, free=()):
    """``repspace._contract`` as it ran before contraction plans: the loop
    of ``contract`` over index tuples, one ``entry`` call per tuple, on
    packed term dicts multiplied by ``repspace._times``."""
    return contract(slots, ranges, {0: 1}, lambda acc, token, out: _times(acc, token, mask, out), free)


def contract_letters(quiver, dim, words, quantum: bool, ends=None):
    """``repspace._contract_letters`` through ``times_token`` and
    ``times_coordinate`` on tuple keys."""
    ranges, slots = [], []
    for word in words:
        first = len(ranges)
        for t, (letter, height) in enumerate(word):
            nxt = t + 1 if ends else (t + 1) % len(word)
            slots.append((height, (letter_entry(letter, quantum), first + t, first + nxt)))
            ranges.append(range(1, dim[letter.target(quiver)] + 1))
    slots = [slot for _, slot in sorted(slots, key=lambda hs: hs[0])]
    if ends:
        ranges[0] = ends[0]
        ranges.append(ends[1])
    message = "contraction has {amount} index assignments, above the limit {limit}"
    work.check(math.prod(len(r) for r in ranges), work.MAX_INDEX_ASSIGNMENTS, message)
    if quantum:
        ring, unit, times = WeylElement, {((), ()): HBarPolynomial.one()}, times_token
    else:
        ring, unit, times = PolyElement, {(): Fraction(1)}, times_coordinate
    if not ends:
        return ring(quiver, dim, contract(slots, ranges, unit, times)[()])
    sums = contract(slots, ranges, unit, times, free=(0, len(ranges) - 1))
    return {key: ring(quiver, dim, terms) for key, terms in sums.items()}


def tau_expansion(quiver, dim, vertex: int, entries) -> dict:
    """sum_{l1,l2} M_{l1,l2} tau(-e_{l1,l2}) as a tuple-keyed term dict, for
    ``entries`` of ((l1, l2), WeylElement) pairs: each entry times the
    position token, then times the derivative token of each term of tau."""
    signed = {1: {}, -1: {}}
    for (l_first, l_last), entry in entries:
        for sign, pos, der in tau_pairs(quiver, dim, vertex, l_first, l_last):
            moved: dict = {}
            times_token(entry.terms, (pos, False), moved)
            times_token(moved, (der, True), signed[-sign])
    out = signed[1]
    for mono, c in signed[-1].items():
        add_into(out, mono, -c)
    return out
