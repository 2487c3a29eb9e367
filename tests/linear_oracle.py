"""The term-dict arithmetic that the packed store replaced, as an oracle.

An element's ``terms`` view is a dict {public key: coefficient}, each
coefficient an ``HBarPolynomial`` (a ``Fraction`` for ``GlElement``), with
no stored zeros.  These functions compute on such dicts the way the
package used to: the linear structure (a public constructor's coercion,
sum, difference, negation, scaling), and each kernel that now reads and
makes packed sums, every coefficient built through ``HBarPolynomial``'s
own arithmetic and every key through the public key types (``Path``,
``Necklace``, ``HeightConfiguration``).  The tests check every packed
class and kernel against them through the ``terms`` view.
"""

from nhq.necklace import Necklace, canonical_necklace, idempotent_class
from nhq.quiver import Path
from nhq.rings import HBarPolynomial
from nhq.schedler import canonical_configuration, make_configuration, make_sym_monomial, straighten

# -- the linear structure ------------------------------------------------------


def add_into(data: dict, key, value) -> None:
    """Accumulate ``value`` at ``key`` in a coefficient dict, dropping zeros."""
    cur = data.get(key)
    value = value if cur is None else cur + value
    if value:
        data[key] = value
    elif cur is not None:
        del data[key]


def coerced(terms, coerce=HBarPolynomial.coerce) -> dict:
    """A public constructor's terms (a dict or (key, coefficient) pairs):
    each coefficient coerced, a repeated key summed, zeros dropped."""
    out: dict = {}
    for key, value in terms.items() if isinstance(terms, dict) else terms:
        add_into(out, key, coerce(value))
    return out


def add(x: dict, y: dict, sign=1) -> dict:
    """x + sign * y."""
    out = dict(x)
    for key, value in y.items():
        add_into(out, key, -value if sign < 0 else value)
    return out


def neg(x: dict) -> dict:
    return {key: -value for key, value in x.items()}


def scale(x: dict, c, coerce=HBarPolynomial.coerce) -> dict:
    c = coerce(c)
    return {key: value * c for key, value in x.items() if value * c}


# -- the kernels -----------------------------------------------------------------


def compose_paths(quiver, p: Path, q: Path) -> Path | None:
    """p*q when source(p) = target(q); None when the product is zero."""
    if p.source(quiver) != q.target(quiver):
        return None
    if p.is_trivial:
        return q
    if q.is_trivial:
        return p
    return Path(p.letters + q.letters)


def path_mul(quiver, x: dict, y: dict) -> dict:
    out: dict = {}
    for p, cp in x.items():
        for q, cq in y.items():
            pq = compose_paths(quiver, p, q)
            if pq is not None:
                add_into(out, pq, cp * cq)
    return out


def natural_projection(quiver, x: dict) -> dict:
    """Trivial paths to their idempotent classes, cycles to their necklaces,
    open paths dropped."""
    out: dict = {}
    for path, c in x.items():
        if path.is_trivial:
            add_into(out, idempotent_class(path.vertex), c)
        elif path.source(quiver) == path.target(quiver):
            add_into(out, canonical_necklace(quiver, path.letters), c)
    return out


def double_bracket(quiver, x: dict, y: dict) -> dict:
    """sum {p_i, q_j} (q_{<j} e p_{>i}) tensor (p_{<i} e q_{>j}), an empty
    factor being the trivial path at the source (left) or the target
    (right) of p_i."""
    out: dict = {}
    for p, cp in x.items():
        for q, cq in y.items():
            a, b = p.letters, q.letters
            for i, u in enumerate(a):
                for j, v in enumerate(b):
                    if u.arrow != v.arrow or u.starred == v.starred:
                        continue
                    left = Path(b[:j] + a[i + 1 :]) if b[:j] + a[i + 1 :] else Path.trivial(u.source(quiver))
                    right = Path(a[:i] + b[j + 1 :]) if a[:i] + b[j + 1 :] else Path.trivial(u.target(quiver))
                    add_into(out, (left, right), cp * cq * (-1 if u.starred else 1))
    return out


def tensor_swap(x: dict) -> dict:
    return {(q, p): c for (p, q), c in x.items()}


def tensor_mult(quiver, x: dict) -> dict:
    out: dict = {}
    for (p, q), c in x.items():
        pq = compose_paths(quiver, p, q)
        if pq is not None:
            add_into(out, pq, c)
    return out


def qpa_mul(quiver, x: dict, y: dict) -> dict:
    """Each pair of configurations stacked, y's heights above x's, and
    straightened on its own."""
    out: dict = {}
    for cfg_x, cx in x.items():
        shift = cfg_x.letter_count
        for cfg_y, cy in y.items():
            comps = cfg_x.components + tuple(
                tuple((letter, h + shift) for letter, h in comp) for comp in cfg_y.components
            )
            cfg = make_configuration(quiver, comps, cfg_x.idempotents + cfg_y.idempotents)
            for key, c in straighten(quiver, cfg).items():
                add_into(out, key, c * cx * cy)
    return out


def div_h(x: dict) -> dict:
    return {key: c.div_h() for key, c in x.items()}


def sym_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            add_into(out, make_sym_monomial(m1 + m2), c1 * c2)
    return out


def constant_part(x: dict) -> dict:
    return {key: HBarPolynomial.constant(c.constant_term()) for key, c in x.items() if c.constant_term()}


def lift(quiver, x: dict) -> dict:
    out: dict = {}
    for monomial, c in x.items():
        add_into(out, canonical_configuration(quiver, monomial), c)
    return out


def project(x: dict) -> dict:
    out: dict = {}
    for cfg, c in x.items():
        necklaces = [Necklace(None, comp) for comp in (tuple(l for l, _ in comp) for comp in cfg.components)]
        necklaces += [idempotent_class(v) for v in cfg.idempotents]
        add_into(out, make_sym_monomial(necklaces), c)
    return out


def gl_commutator(x: dict, y: dict) -> dict:
    out: dict = {}
    for (i, p, q), a in x.items():
        for (j, u, t), b in y.items():
            if i != j:
                continue
            if q == u:
                add_into(out, (i, p, t), a * b)
            if t == p:
                add_into(out, (i, u, q), -(a * b))
    return out
