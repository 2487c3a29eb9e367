"""The tuple-keyed Rees-Weyl ring and coordinate polynomial ring, kept as
oracles for the packed kernels.

``nhq.repspace`` stores an operator or a polynomial packed, one int per
monomial and power of h.  Here the same rings work on the tuple form of
their ``terms``.  A Weyl monomial is ``(pos, der)``, each a sorted tuple of
``((arrow, row, col), exp)``, with ``HBarPolynomial`` coefficients.  A
product of two monomials moves the left one's derivatives past the right
one's positions by the binomial formula, d^b x^a = sum_k C(b, k) C(a, k)
k! h^k x^(a-k) d^(b-k) for each shared coordinate.  A polynomial monomial
is a sorted tuple of ``((arrow, starred, row, col), exp)`` with
``Fraction`` coefficients; its Poisson bracket is the sum over conjugate
pairs of products of partial derivatives.  Every function takes and
returns tuple term dicts.
"""

import itertools
import math
from fractions import Fraction

from linear_oracle import add_into


def _merge_exponents(m1, m2):
    out = dict(m1)
    for var, exp in m2:
        out[var] = out.get(var, 0) + exp
    return tuple(sorted(out.items()))


def weyl_mono_mul(m1, m2, contracted_only=False):
    """Yield (monomial, h_power, integer factor) for a normal-ordered product;
    with ``contracted_only``, only the terms with h_power >= 1."""
    pos1, der1 = m1
    pos2, der2 = m2
    d1 = dict(der1)
    p2 = dict(pos2)
    common = sorted(v for v in d1 if v in p2)
    if not common:
        if not contracted_only:
            yield (_merge_exponents(pos1, pos2), _merge_exponents(der1, der2)), 0, 1
        return
    per_var = [
        [(k, math.comb(d1[v], k) * math.comb(p2[v], k) * math.factorial(k)) for k in range(min(d1[v], p2[v]) + 1)]
        for v in common
    ]
    combos = itertools.product(*per_var)
    if contracted_only:
        next(combos)  # the first combination contracts nothing: h_power 0
    for combo in combos:
        d1p, p2p = dict(d1), dict(p2)
        for v, (k, _) in zip(common, combo):
            d1p[v] -= k
            p2p[v] -= k
        rest = lambda exps: tuple(sorted((v, e) for v, e in exps.items() if e))
        mono = (_merge_exponents(pos1, rest(p2p)), _merge_exponents(rest(d1p), der2))
        yield mono, sum(k for k, _ in combo), math.prod(c for _, c in combo)


def weyl_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            for mono, k, factor in weyl_mono_mul(m1, m2):
                add_into(out, mono, (c1 * c2 * factor).shift(k))
    return out


def weyl_commutator(x: dict, y: dict) -> dict:
    """xy - yx from the contracted terms of each order only."""
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            for (a, b), sign in (((m1, m2), 1), ((m2, m1), -1)):
                for mono, k, factor in weyl_mono_mul(a, b, True):
                    add_into(out, mono, (c1 * c2 * factor * sign).shift(k))
    return out


def combine(x: dict, y: dict, sign=1) -> dict:
    out = dict(x)
    for mono, c in y.items():
        add_into(out, mono, c * sign)
    return out


def scale(x: dict, c) -> dict:
    out: dict = {}
    for mono, v in x.items():
        add_into(out, mono, v * c)
    return out


def rees_degrees(x: dict) -> set:
    """Derivative count plus h power of every term."""
    return {
        sum(e for _, e in der) + k for (_, der), coeff in x.items() for k, c in enumerate(coeff.coeffs) if c
    }


def is_divisible_by_h(x: dict) -> bool:
    return all(c.is_divisible_by_h() for c in x.values())


def div_h(x: dict) -> dict:
    return {mono: c.div_h() for mono, c in x.items()}


def classical_symbol(x: dict) -> dict:
    """h = 0, with d(a)_{r,c} read as the coordinate (a')_{c,r}."""
    out: dict = {}
    for (pos, ders), coeff in x.items():
        if coeff.constant_term():
            mono = [((a, False, r, c), e) for (a, r, c), e in pos]
            mono += [((a, True, c, r), e) for (a, r, c), e in ders]
            add_into(out, tuple(sorted(mono)), Fraction(coeff.constant_term()))
    return out


def poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            add_into(out, _merge_exponents(m1, m2), c1 * c2)
    return out


def poly_partial(f: dict, var) -> dict:
    out: dict = {}
    for mono, coeff in f.items():
        for k, (w, exp) in enumerate(mono):
            if w != var:
                continue
            rest = mono[:k] + ((w, exp - 1),) + mono[k + 1 :] if exp > 1 else mono[:k] + mono[k + 1 :]
            add_into(out, rest, coeff * exp)
    return out


def poisson(f: dict, g: dict) -> dict:
    """Symplectic bracket with {(a)_{ij}, (a')_{ji}} = 1 on conjugate pairs."""
    coords = set()
    for element in (f, g):
        for mono in element:
            for (arrow, starred, row, col), _exp in mono:
                coords.add((arrow, row, col) if not starred else (arrow, col, row))
    out: dict = {}
    for arrow, row, col in sorted(coords):
        pos = (arrow, False, row, col)
        mom = (arrow, True, col, row)
        for mono, c in poly_mul(poly_partial(f, pos), poly_partial(g, mom)).items():
            add_into(out, mono, c)
        for mono, c in poly_mul(poly_partial(f, mom), poly_partial(g, pos)).items():
            add_into(out, mono, -c)
    return out
