import gc
import importlib
import pkgutil
import random

from fractions import Fraction

import pytest

import nhq
import nhq.schedler as schedler
from nhq import work
from nhq import (
    Letter,
    QPAElement,
    ReductionParameters,
    WorkLimitError,
    block_matrix,
    canonical_necklace,
    decompose_ideal_image,
    ideal_generator,
    lift_necklace,
    make_configuration,
    moment_lift,
    qpa_comm,
    qpa_mul,
    straighten,
    trace_quantum_config,
)
from nhq.linear import from_ints, int_terms
from nhq.sampling import a3p, all_dimension_vectors, random_configuration, random_necklace, small_quivers
from nhq.schedler import (
    _config,
    _form_key,
    _height_form,
    _normal_form,
    _normal_terms,
    _quiver_key,
    clear_straighten_cache,
    ideal_normal_forms,
    marked_word,
)
from nhq.repspace import _kept_weight, _packed_trace, _plan_weight, _plans
from nhq.trace import clear_trace_cache, enumerate_generators, generator_image, trace_quantum
from nhq.work import CACHE_SIZE, CACHE_WEIGHT, PLAN_WEIGHT, GenerationalCache
from test_straighten_oracle import coded_form, key_form, split_key


def params(quiver):
    """Nonzero r and lambda at every vertex, so both parts are traced."""
    nv = len(quiver.vertices)
    return ReductionParameters((Fraction(1),) * nv, (Fraction(-2),) * nv)


def _two_loop_cfg(quiver):
    x, y = Letter(0, False), Letter(1, False)
    return make_configuration(
        quiver, [((x.star(), 1), (y, 2), (x, 3), (y.star(), 4))]
    )


def test_repeated_default_straighten_is_a_cache_hit(L2):
    cfg = _two_loop_cfg(L2)
    first = straighten(L2, cfg)
    info = _normal_form.cache_info()
    assert info.currsize > 0
    again = straighten(L2, cfg)
    after = _normal_form.cache_info()
    assert again == first
    assert after.hits == info.hits + 1
    assert (after.misses, after.currsize) == (info.misses, info.currsize)


def test_straighten_cache_holds_int_coefficients(L2):
    cfg = _two_loop_cfg(L2)
    result = straighten(L2, cfg)
    info = _normal_form.cache_info()
    entry = _normal_form.get(_form_key(_quiver_key(L2), *_height_form(cfg.codes, cfg.heights), cfg.idempotents))
    assert _normal_form.cache_info().hits == info.hits + 1
    # one flat tuple (cfg0, c0, cfg1, c1, ...) of coded cfgs and int coefficients
    assert len(entry) == 2 * len(result.terms) > 1
    assert all(type(c) is int for c in entry[1::2])
    assert all(_config(cfg) in result.terms for cfg in entry[::2])


def test_clear_straighten_cache_empties_it(L2):
    straighten(L2, _two_loop_cfg(L2))
    assert _normal_form.cache_info().currsize > 0
    clear_straighten_cache()
    assert _normal_form.cache_info().currsize == 0


def test_clear_trace_cache_empties_it(J):
    x = Letter(0, False)
    trace_quantum_config(J, (2,), (((x.star(), 1), (x, 2)),), ())
    assert _packed_trace.cache_info().currsize == 1
    decompose_ideal_image(J, (2,), canonical_necklace(J, (x, x.star())), 0, 0)
    assert _packed_trace.cache_info().currsize > 1
    clear_trace_cache()
    assert _packed_trace.cache_info().currsize == 0


def test_a_repeated_generator_image_contracts_nothing(L2, monkeypatch):
    # all four parts of an image are traced through the one trace cache, so
    # the same generator again makes no contraction; the lazy ``pairs`` view
    # contracts the open word on its first read only
    from nhq import repspace

    x, y = Letter(0, False), Letter(1, False)
    p = canonical_necklace(L2, (x, y.star(), y, x.star()))
    contractions = []
    contract = repspace._contract
    monkeypatch.setattr(repspace, "_contract", lambda *a: contractions.append(a) or contract(*a))
    clear_trace_cache()
    first = generator_image(L2, (2,), p, 0, 1)
    assert contractions and all(free == () for *_, free in contractions)
    contractions.clear()
    again = generator_image(L2, (2,), p, 0, 1)
    assert contractions == []
    parts = lambda image: (image.spliced, image.cycle, image.diagonal, image.expanded)
    assert parts(again) == parts(first) and all(parts(first))
    pairs = again.pairs
    assert [(len(slots), free) for slots, _, _, free in contractions] == [(4, (0, 4))]
    assert again.pairs is pairs and len(contractions) == 1


def test_a_warm_generator_image_charges_nothing_and_builds_no_element(L2, monkeypatch):
    # a warm image is one trace-cache hit: P, T and G - E are read back as
    # they were kept and chi binds on them, with no straightening, no
    # charge, no sum, no contraction and no element, at any (r, lambda)
    from nhq import repspace

    x, y = Letter(0, False), Letter(1, False)
    p = canonical_necklace(L2, (x, y.star(), y, x.star()))
    cold = generator_image(L2, (2,), p, 0, 1)
    binds = [(0, 0), (Fraction(1, 2), 0), (Fraction(-3), Fraction(2))]
    expected = [cold.chi(r, lam) for r, lam in binds]
    calls = {"_charge": 0, "_closed_sum": 0, "_contract": 0, "_from_packed": 0, "ideal_normal_forms": 0}

    def counted(name, f):
        return lambda *a: calls.__setitem__(name, calls[name] + 1) or f(*a)

    from_packed = repspace._PackedOperator._from_packed.__func__
    for name in ("_charge", "_closed_sum", "_contract", "ideal_normal_forms"):
        monkeypatch.setattr(repspace, name, counted(name, getattr(repspace, name)))
    monkeypatch.setattr(repspace._PackedOperator, "_from_packed", classmethod(counted("_from_packed", from_packed)))
    image = generator_image(L2, (2,), p, 0, 1)
    assert [image.chi(r, lam) for r, lam in binds] == expected and expected[0] is not None
    assert calls == {"_charge": 0, "_closed_sum": 0, "_contract": 0, "_from_packed": 0, "ideal_normal_forms": 0}
    # the kept G - E is the difference of G and E summed apart
    G, _, _, E = _summed(L2, (2,), image)
    assert image.difference == _difference(G, E)
    # at r = 0 a bind reads G - E as it is, whatever lambda
    adds = []
    add_scaled = repspace._add_scaled
    monkeypatch.setattr(repspace, "_add_scaled", lambda *a: adds.append(a) or add_scaled(*a))
    assert image.chi(0, 0) == expected[0] and image.chi(0, Fraction(1)) == cold.chi(0, Fraction(1))
    assert adds == []


_BINDS = [(Fraction(r), Fraction(lam)) for r in (0, Fraction(1, 2), -3) for lam in (0, 2)]


def _summed(quiver, dim, image):
    """G, P, T and E of ``image``, each summed on its own from the normal
    forms of its generator, an n-letter term of an N'-letter part at
    h^((N' - n)/2)."""
    from nhq import repspace

    v = image.v
    return [
        repspace._closed_sum(
            quiver, dim, image.codec, [(cfg, (((n - sum(map(len, cfg[0]))) // 2, c),)) for cfg, c in part.items()], True
        )
        for part, n in zip(ideal_normal_forms(quiver, image.word, image.vertex), (v + 2, v, v, v + 2))
    ]


def _difference(a, b):
    return {key: a.get(key, 0) - b.get(key, 0) for key in a.keys() | b.keys() if a.get(key, 0) != b.get(key, 0)}


def _assert_same_image(image, fresh):
    """``image`` equals the image made afresh in every part and view."""
    for name in ("spliced", "cycle", "diagonal", "difference", "expanded"):
        assert getattr(image, name) == getattr(fresh, name), name
    for r, lam in _BINDS:
        assert image.chi(r, lam) == fresh.chi(r, lam)
        assert image.target(r, lam) == fresh.target(r, lam)
    for lam in (0, 2):
        assert image.expansion(lam) == fresh.expansion(lam)
    assert image.trace_of_p == fresh.trace_of_p


@pytest.mark.parametrize("quiver", small_quivers() + [a3p()], ids=lambda q: ",".join(a.name for a in q.arrows))
def test_a_kept_generator_image_equals_the_image_made_afresh(quiver, monkeypatch):
    # the trace cache keeps P, T, G - E and G's summands of each image;
    # they, G and E summed again, and every view equal the fresh route's:
    # the parts made past the cache, which equal the normal forms summed
    # apart, on the miss that keeps them and on a hit after only the
    # straighten cache is emptied
    from nhq import repspace

    made = []
    image_parts = repspace._image_parts
    monkeypatch.setattr(repspace, "_image_parts", lambda *a: made.append(a) or image_parts(*a))
    for dim in all_dimension_vectors(quiver, 2):
        seen = set()
        for p, vertex, mark in enumerate_generators(quiver, 3):
            word = marked_word(quiver, p, vertex, mark)
            summands, *parts = image_parts(quiver, dim, vertex, word)
            codec = repspace._ideal_codec(quiver, dim, vertex, word)
            kept = [dict(zip(it, it)) for it in map(iter, parts)]
            fresh = repspace.IdealImage(quiver, dim, vertex, word, codec, summands, *kept)
            G, P, T, E = _summed(quiver, dim, fresh)
            assert (fresh.spliced, fresh.cycle, fresh.diagonal, fresh.expanded) == (G, P, T, E)
            assert fresh.difference == _difference(G, E)
            assert (parts[0] is parts[1]) == (P == T)
            made.clear()
            first = generator_image(quiver, dim, p, vertex, mark)
            assert len(made) == ((vertex, word) not in seen)
            seen.add((vertex, word))
            _assert_same_image(first, fresh)
            clear_straighten_cache()
            made.clear()
            again = generator_image(quiver, dim, p, vertex, mark)
            assert made == [] and again is not first and again.spliced is not first.spliced
            _assert_same_image(again, fresh)


def test_a_generator_image_is_built_once_per_call(L2, monkeypatch):
    # a miss sums the parts it keeps without building an image, so a miss
    # and a hit each build the one image they return
    from nhq import repspace

    built, made = [], []
    init, image_parts = repspace.IdealImage.__init__, repspace._image_parts
    monkeypatch.setattr(repspace.IdealImage, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    monkeypatch.setattr(repspace, "_image_parts", lambda *a: made.append(a) or image_parts(*a))
    x, y = Letter(0, False), Letter(1, False)
    p = canonical_necklace(L2, (x, y.star(), y, x.star()))
    first = generator_image(L2, (2,), p, 0, 1)
    assert (len(made), len(built)) == (1, 1)
    again = generator_image(L2, (2,), p, 0, 1)
    assert (len(made), len(built)) == (1, 2) and again is not first


def test_a_cycle_part_unequal_to_the_trace_of_p_is_kept_apart(J, monkeypatch):
    # P shares T's tuple only when they are equal: a straightened cycle
    # that is not Tr_q(p) is kept as it is, and fails the grade-v check
    from nhq import repspace

    normal_forms = repspace.ideal_normal_forms

    def doubled(*args):
        G, P, T, E = normal_forms(*args)
        return G, {cfg: 2 * c for cfg, c in P.items()}, T, E

    monkeypatch.setattr(repspace, "ideal_normal_forms", doubled)
    p = canonical_necklace(J, (Letter(0, False), Letter(0, True)))
    image = generator_image(J, (2,), p, 0, 1)
    assert image.cycle == {key: 2 * c for key, c in image.diagonal.items()} != {}
    assert image.chi(0, Fraction(1)) is None


@pytest.mark.parametrize("limit", ["MAX_INDEX_ASSIGNMENTS", "MAX_REWRITES"])
def test_a_refused_generator_image_is_not_kept(J, limit, monkeypatch):
    # a lowered limit refuses the image before any contraction, and the
    # trace cache is left without an image entry (nor any trace)
    from nhq import repspace

    x, xs = Letter(0, False), Letter(0, True)
    p, dim = canonical_necklace(J, (x, xs, x)), (2,)
    word = marked_word(J, p, 0, 0)
    expected = generator_image(J, dim, p, 0, 0)
    total = sum(2 ** sum(map(len, codes)) for codes, _, _ in set().union(*ideal_normal_forms(J, word, 0)))
    clear_straighten_cache()
    clear_trace_cache()
    contractions = []
    contract = repspace._contract
    monkeypatch.setattr(repspace, "_contract", lambda *a: contractions.append(a) or contract(*a))
    if limit == "MAX_INDEX_ASSIGNMENTS":
        monkeypatch.setattr(work, limit, total - 1)
        refusal = f"has {total} index assignments, above the limit {total - 1}"
    else:
        monkeypatch.setattr(work, limit, 10)
        refusal = "straightening needs more rewrites than the limit 10"
    with pytest.raises(WorkLimitError, match=refusal):
        generator_image(J, dim, p, 0, 0)
    assert contractions == [] and _packed_trace.cache_info().currsize == 0
    monkeypatch.undo()
    image = generator_image(J, dim, p, 0, 0)
    _assert_same_image(image, expected)
    kept = [key for key, _ in _cache_entries(_packed_trace) if key[0] is repspace._image_parts]
    assert kept == [(repspace._image_parts, J, dim, 0, word)]


def test_a_kept_image_charges_its_spliced_part_when_read(J, monkeypatch):
    # a hit binds chi with no charge, but summing G again from its summands
    # is charged like any sum: under a lowered limit it is refused before
    # any contraction
    from nhq import repspace

    x, xs = Letter(0, False), Letter(0, True)
    p, dim = canonical_necklace(J, (x, xs, x)), (2,)
    expected = generator_image(J, dim, p, 0, 0).spliced
    image = generator_image(J, dim, p, 0, 0)
    total = sum(2 ** sum(map(len, cfg[0])) for cfg in image.summands[::2])
    contractions = []
    contract = repspace._contract
    monkeypatch.setattr(repspace, "_contract", lambda *a: contractions.append(a) or contract(*a))
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", total - 1)
    assert image.chi(0, 0) is not None
    with pytest.raises(WorkLimitError, match=f"has {total} index assignments, above the limit {total - 1}"):
        image.target(0, 0)
    assert contractions == []
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", total)
    assert image.spliced == expected and contractions == []


def test_the_one_trace_cache_holds_untracked_ints_and_no_views():
    """qtrace's shapes: traces of lifted necklaces of up to 8 letters at
    d = 2, 3, alone and summed.  Reading the ``terms`` view of a returned
    trace keeps the view on that element: every cached value stays one
    flat tuple (key0, c0, key1, c1, ...) of ints, which the collector stops
    tracking, and the same trace read again is a fresh element."""
    rng = random.Random(11)
    for quiver in small_quivers():
        for length, d in ((8, 2), (5, 3)):
            dim = (d,) * len(quiver.vertices)
            x, y = (lift_necklace(quiver, random_necklace(rng, quiver, length)) for _ in range(2))
            for element in (x, x + y):
                first = trace_quantum(element, dim)
                view = first.terms
                again = trace_quantum(element, dim)
                assert again is not first and again == first
                assert again.terms == view and again.terms is not view
    for _ in range(3):
        gc.collect()
    traces = _cache_entries(_packed_trace)
    assert len(traces) == _packed_trace.cache_info().currsize >= 10
    for _, value in traces:
        assert type(value) is tuple and not gc.is_tracked(value)
        assert len(value) % 2 == 0
        assert all(type(key) is int and type(c) is int for key, c in zip(value[::2], value[1::2]))


def test_other_strategies_leave_the_shared_cache_untouched(L2):
    rng = random.Random(5)
    for k in range(10):
        cfg = random_configuration(rng, L2, max_letters=8)
        before = _normal_form.cache_info()
        last = straighten(L2, cfg, strategy="last")
        rand = straighten(L2, cfg, strategy="random", rng=random.Random(k))
        assert _normal_form.cache_info() == before
        assert last == rand == straighten(L2, cfg)


def test_every_module_cache_is_bounded():
    # every module-level cache (an instance, not the cache class itself)
    # is bounded, and the two result caches are of the one cache type,
    # bounded by weight too
    caches = []
    for mod in pkgutil.iter_modules(nhq.__path__):
        module = importlib.import_module(f"nhq.{mod.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)) and not isinstance(value, type):
                caches.append((f"{mod.name}.{name}", value.cache_parameters()["maxsize"]))
    for name, maxsize in caches:
        assert maxsize is not None, name
    sizes = dict(caches)
    assert sizes["schedler._normal_form"] == sizes["repspace._packed_trace"] == CACHE_SIZE
    assert type(_normal_form) is type(_packed_trace) is GenerationalCache
    assert _normal_form.cache_parameters()["maxweight"] == _packed_trace.cache_parameters()["maxweight"] == CACHE_WEIGHT
    # the contraction plans, bounded by the triples they hold
    assert sizes["repspace._plans"] == CACHE_SIZE and type(_plans) is GenerationalCache
    assert _plans.cache_parameters()["maxweight"] == PLAN_WEIGHT


def _cache_entries(cache):
    """(key, value) of every entry of a ``GenerationalCache``, young
    generation first, read from its two dicts, each under the key it was
    ``put`` with."""
    return [item for generation in (cache._young, cache._old) for item in generation.items()]


def test_straighten_cache_is_not_tracked_by_the_collector():
    """Keys and values of the straighten cache hold only str and int, so
    CPython stops tracking them and full collections skip the cache; so do
    the codes and heights that key the terms of every ``QPAElement`` and
    the values of the packed trace cache of the ideal decompositions.  A
    tuple holding a ``Letter`` (a named tuple) is never untracked."""
    rng = random.Random(7)
    elements = []
    for quiver in small_quivers():
        # the pbw shapes: shuffled configurations, products and commutators
        # of lifted necklaces; and the other two straightening entry points
        for _ in range(3):
            cfg = random_configuration(rng, quiver, max_letters=8, max_idempotents=1)
            elements.append(straighten(quiver, cfg))
        x, y, z = (lift_necklace(quiver, random_necklace(rng, quiver, 4)) for _ in range(3))
        elements += [x, y, z, qpa_mul(qpa_mul(x, y), z), qpa_comm(x, y), moment_lift(quiver)]
        p = random_necklace(rng, quiver, 3, allow_idempotent=False)
        elements.append(ideal_generator(quiver, p, p.letters[0].source(quiver), 0))
        dim = (2,) * len(quiver.vertices)
        for necklace, vertex, mark in enumerate_generators(quiver, 2):
            decompose_ideal_image(quiver, dim, necklace, vertex, mark, params(quiver))
    # A collection untracks a tuple only when its items are untracked, and
    # it meets a container before the items it holds, so each collection
    # untracks one level of nesting: a value nests four deep (the flat
    # entry, coded cfg, heights, one component's heights); a key is one str,
    # which the collector never tracks.
    for _ in range(5):
        gc.collect()
    entries = _cache_entries(_normal_form)
    assert len(entries) == _normal_form.cache_info().currsize > 100
    assert not any(gc.is_tracked(key) or gc.is_tracked(value) for key, value in entries)
    traces = _cache_entries(_packed_trace)
    assert len(traces) == _packed_trace.cache_info().currsize > 100
    assert not any(gc.is_tracked(value) for _, value in traces)
    keys = [cfg for element in elements for cfg in element.terms]
    assert len(keys) > 100 and any(cfg.codes for cfg in keys)
    assert not any(gc.is_tracked(cfg.codes) or gc.is_tracked(cfg.heights) for cfg in keys)


def test_straighten_cache_entries_are_flat_and_share_their_keys():
    """Each entry of the straighten cache is one flat tuple (cfg0, c0, cfg1,
    c1, ...): read in pairs it is the normal form the "last" strategy
    gives.  Coded cfgs whose blocks have the same lengths share one heights
    tuple, and equal codes are one ``str``, across all entries."""
    clear_straighten_cache()
    rng = random.Random(3)
    for quiver in small_quivers():
        for _ in range(3):
            straighten(quiver, random_configuration(rng, quiver, max_letters=8, max_idempotents=1))
        x, y = (lift_necklace(quiver, random_necklace(rng, quiver, 4)) for _ in range(2))
        qpa_comm(x, y)
        moment_lift(quiver)
    entries = _cache_entries(_normal_form)
    assert len(entries) > 50
    heights, codes = {}, {}
    for key, value in entries:
        form = key_form(key)
        (quiver,) = [q for q in small_quivers() if key.startswith(_quiver_key(q))]
        last, den = int_terms(straighten(quiver, _config(coded_form(*form)), strategy="last"))
        it = iter(value)
        pairs = dict(zip(it, it))
        assert len(pairs) == len(value) // 2 and den == 1
        n_letters = len(form[0])
        assert {cfg: [((n_letters - sum(map(len, cfg[0]))) // 2, c)] for cfg, c in pairs.items()} == last
        for cfg in pairs:
            heights.setdefault(tuple(map(len, cfg[0])), set()).add(id(cfg[1]))
            for s in cfg[0]:
                codes.setdefault(s, set()).add(id(s))
    assert len(heights) > 10 and all(len(ids) == 1 for ids in heights.values())
    assert any(len(s) > 1 for s in codes) and all(len(ids) == 1 for ids in codes.values())


def test_rewrite_budget_refuses_and_leaves_a_correct_cache(J, monkeypatch):
    x = Letter(0, False)
    word = (x.star(), x, x, x.star(), x.star(), x, x.star(), x)
    cfg = make_configuration(J, [tuple(zip(word, (5, 2, 8, 1, 6, 3, 7, 4)))])
    expected = straighten(J, cfg, strategy="last")
    clear_straighten_cache()
    monkeypatch.setattr(work, "MAX_REWRITES", 20)
    with pytest.raises(WorkLimitError, match="straightening needs more rewrites than the limit 20"):
        straighten(J, cfg)
    # the refused call cached the corrections it finished, and nothing else
    entries = _cache_entries(_normal_form)
    top = _form_key(_quiver_key(J), *_height_form(cfg.codes, cfg.heights), cfg.idempotents)
    assert entries and top not in dict(entries)
    monkeypatch.undo()
    for key, _ in entries:
        form = key_form(key)
        cached = from_ints(QPAElement, (J,), _normal_terms(J, [(*form, ((0, 1),))]))
        assert cached == straighten(J, _config(coded_form(*form)), strategy="last")
    assert straighten(J, cfg) == expected
    assert straighten(J, cfg, strategy="random", rng=random.Random(1)) == expected


def _held_weight(cache, weight):
    return sum(weight(value) for _, value in _cache_entries(cache))


def _get_or_make(cache, make, key):
    """What every reader of a ``GenerationalCache`` does: ``get``, and on a
    miss ``make(key)`` and ``put`` it, so a ``make`` that raises stores
    nothing."""
    value = cache.get(key)
    if value is None:
        value = make(key)
        cache.put(key, value)
    return value


def test_the_cache_type_is_read_by_get_and_stored_by_put_only():
    # the cache is a plain memo: no get-or-compute call, and a new cache
    # holds nothing and has counted nothing
    assert "__call__" not in dir(GenerationalCache) and not callable(GenerationalCache(8))
    cache = GenerationalCache(8)
    assert cache.cache_info() == (0, 0, 8, 0, 0, CACHE_WEIGHT) and _cache_entries(cache) == []
    assert cache.cache_parameters() == {"maxsize": 8, "maxweight": CACHE_WEIGHT, "typed": False}


def test_the_cache_type_keeps_its_bound_and_its_weight():
    # a load of three times the cap: the cache never holds more than
    # maxsize entries, its weight is the pairs of the values it holds, and
    # the counts are lru_cache's
    made = []
    make = lambda n: made.append(n) or (n,) * (2 * (n % 5))
    cache = GenerationalCache(8)
    rng = random.Random(4)
    for _ in range(3 * 8 * 4):
        n = rng.randrange(40)
        assert _get_or_make(cache, make, n) == (n,) * (2 * (n % 5))
        info = cache.cache_info()
        assert info.currsize == len(_cache_entries(cache)) <= 8
        assert info.weight == _held_weight(cache, lambda value: len(value) // 2)
    assert info.misses == len(made) > 3 * 8 and info.hits + info.misses == 3 * 8 * 4
    assert info.maxsize == cache.cache_parameters()["maxsize"] == 8
    cache.cache_clear()
    assert cache.cache_info() == (0, 0, 8, 0, 0, CACHE_WEIGHT) and _cache_entries(cache) == []


def test_an_entry_read_in_every_half_window_survives_each_rotation():
    # 4 stores (maxsize // 2) at most between two reads of an entry never
    # drop it, however the young generation stood when it was read; an
    # entry not read again is gone after 8
    make = lambda n: (n, 1)
    cache = GenerationalCache(8)
    for start in range(4):
        cache.cache_clear()
        for n in range(start):
            _get_or_make(cache, make, 100 + n)
        _get_or_make(cache, make, "dropped")
        _get_or_make(cache, make, "kept")
        for n in range(40):
            cache.put(n, (n, 1))
            if n % 4 == 3:
                assert cache.get("kept") == ("kept", 1), (start, n)
        assert cache.get("dropped") is None
        assert cache.cache_info().misses == start + 3


def test_a_miss_read_or_refused_stores_nothing():
    def make(n):
        if n < 0:
            raise WorkLimitError("refused")
        return (n, 1)

    cache = GenerationalCache(8)
    assert cache.get(1) is None and cache.cache_info() == (0, 1, 8, 0, 0, CACHE_WEIGHT)
    with pytest.raises(WorkLimitError):
        _get_or_make(cache, make, -1)
    assert cache.cache_info() == (0, 2, 8, 0, 0, CACHE_WEIGHT)
    assert _get_or_make(cache, make, 1) == (1, 1) and cache.get(1) == (1, 1)
    assert cache.cache_info() == (1, 3, 8, 1, 1, CACHE_WEIGHT)
    # a stored key stored again replaces its value and its weight
    cache.put(1, (1, 2, 3, 4))
    assert cache.get(1) == (1, 2, 3, 4) and cache.cache_info()[3:5] == (1, 2)


def test_both_caches_keep_their_bound_and_weight_past_three_times_the_cap(monkeypatch):
    # the straighten and trace caches at a cap of 64: a load of straightening
    # and reduction-ideal images past three times the cap keeps both within
    # it, their weights the pairs of the values they hold (the pairs of a
    # kept image's G summands, P, T and D), and every result exact
    from nhq import repspace

    def image_weight(value):
        if value and type(value[0]) is tuple:
            return sum(len(part) // 2 for part in {id(part): part for part in value}.values())
        return len(value) // 2

    clear_straighten_cache()
    clear_trace_cache()
    monkeypatch.setattr(_normal_form, "maxsize", 64)
    monkeypatch.setattr(_packed_trace, "maxsize", 64)
    rng = random.Random(9)
    images = 0
    while _normal_form.cache_info().misses < 3 * 64 or _packed_trace.cache_info().misses < 3 * 64:
        for quiver in small_quivers():
            cfg = random_configuration(rng, quiver, max_letters=8, max_idempotents=1)
            assert straighten(quiver, cfg) == straighten(quiver, cfg, strategy="last")
            dim = (2,) * len(quiver.vertices)
            p = random_necklace(rng, quiver, 3, allow_idempotent=False)
            vertex = p.letters[0].source(quiver)
            images += decompose_ideal_image(quiver, dim, p, vertex, 0, params(quiver)).verified
            for cache, weight in ((_normal_form, lambda value: len(value) // 2), (_packed_trace, image_weight)):
                info = cache.cache_info()
                assert info.currsize == len(_cache_entries(cache)) <= 64
                assert info.weight == _held_weight(cache, weight)
    assert images and any(type(value[0]) is tuple for _, value in _cache_entries(_packed_trace) if value)


def test_an_image_miss_stores_no_trace_of_its_T_or_E_words(L2, monkeypatch):
    # a cold image stores the traces of G's and P's configurations and
    # reads those of p's word (T) and of E's closed words with ``get``
    # only: they are contracted on a miss and not kept, while an E word
    # that G stored, or a T word that P stored, is a hit contracted once
    from nhq import repspace

    x, xs = Letter(0, False), Letter(0, True)
    p, dim = canonical_necklace(L2, (x, x, xs)), (2,)
    word = marked_word(L2, p, 0, 0)
    G, P, T, E = map(set, ideal_normal_forms(L2, word, 0))
    assert T - P and E - G and E & G
    contracted = []
    contract_packed = repspace._contract_packed
    monkeypatch.setattr(
        repspace, "_contract_packed", lambda q, d, c, cfg, *a: contracted.append(cfg) or contract_packed(q, d, c, cfg, *a)
    )
    clear_straighten_cache()
    clear_trace_cache()
    image = generator_image(L2, dim, p, 0, 0)
    traced = lambda cfgs: {(L2, dim, image.codec.arrows, image.codec.width, cfg) for cfg in cfgs}
    stored = {key for key, _ in _cache_entries(_packed_trace)}
    assert stored == traced(G | P) | {(repspace._image_parts, L2, dim, 0, word)}
    assert sorted(map(repr, contracted)) == sorted(map(repr, G | P | T | E))
    info = _packed_trace.cache_info()
    assert info.hits == len(T & P) + len(E & G)
    assert info.misses == 1 + len(G | P) + len(T - P) + len(E - G)
    # the image read again is one hit, and its T and E words stay unstored
    again = generator_image(L2, dim, p, 0, 0)
    assert again.expanded == image.expanded and again.trace_of_p == image.trace_of_p
    assert {key for key, _ in _cache_entries(_packed_trace)} == stored


def test_the_young_generation_rotates_before_its_weight_passes_half_the_bound():
    # at a bound of 8 each generation holds at most 4: a store that would
    # take the young generation past it makes it the old one first
    cache = GenerationalCache(64)
    cache.maxweight = 8
    cache.put("a", ("a", 1) * 3)
    cache.put("b", ("b", 1))
    assert cache._young == {"a": ("a", 1) * 3, "b": ("b", 1)} and cache._old == {}
    cache.put("c", ("c", 1) * 2)
    assert list(cache._young) == ["c"] and list(cache._old) == ["a", "b"]
    assert cache.cache_info()[3:] == (3, 6, 8)
    # a read moves an old entry back, within the young generation's half
    assert cache.get("b") == ("b", 1)
    assert list(cache._young) == ["c", "b"] and list(cache._old) == ["a"]
    cache.put("d", ("d", 1) * 4)
    assert list(cache._young) == ["d"] and list(cache._old) == ["c", "b"]
    assert cache.get("a") is None and cache.cache_info()[3:] == (3, 7, 8)
    assert cache.cache_parameters() == {"maxsize": 64, "maxweight": 8, "typed": False}


def test_a_value_heavier_than_the_bound_is_returned_and_not_kept(J, monkeypatch):
    # a value heavier than a generation's half of the bound is returned by
    # its reader and not kept, and drops the entry its key had; one that
    # fits is kept
    made = lambda weight: lambda n: (n, 1) * weight
    cache = GenerationalCache(8)
    cache.maxweight = 6
    for weight in (7, 4):
        assert _get_or_make(cache, made(weight), weight) == (weight, 1) * weight
        assert cache.get(weight) is None
    assert cache.cache_info() == (0, 4, 8, 0, 0, 6) and _cache_entries(cache) == []
    assert _get_or_make(cache, made(3), 1) == (1, 1) * 3 and cache.get(1) == (1, 1) * 3
    cache.put(1, (1, 1) * 7)
    assert cache.get(1) is None and cache.cache_info()[3:] == (0, 0, 6)
    # the trace cache below the weight of a trace: the trace is exact and
    # not kept, and read again it is made again
    x = Letter(0, False)
    cfg = (((x.star(), 1), (x, 2), (x.star(), 3), (x, 4)),)
    expected = trace_quantum_config(J, (2,), cfg, ())
    heavy = len(expected.terms)
    assert heavy > 2
    clear_trace_cache()
    monkeypatch.setattr(_packed_trace, "maxweight", 2 * heavy - 1)
    assert trace_quantum_config(J, (2,), cfg, ()) == expected
    assert trace_quantum_config(J, (2,), cfg, ()) == expected
    assert _packed_trace.cache_info()[:5] == (0, 2, CACHE_SIZE, 0, 0)
    monkeypatch.setattr(_packed_trace, "maxweight", 2 * heavy)
    assert trace_quantum_config(J, (2,), cfg, ()) == expected
    assert _packed_trace.cache_info()[3:5] == (1, heavy)


def test_a_load_past_a_small_weight_bound_keeps_within_it_and_its_results(monkeypatch):
    # both caches at a small weight bound: a load of straightening, traces
    # and reduction-ideal images that stores many times the bound keeps the
    # held weight within it after every put, and every result equals the
    # run at the default bound
    def load():
        rng = random.Random(12)
        results = []
        for quiver in small_quivers():
            dim = (2,) * len(quiver.vertices)
            for _ in range(3):
                cfg = random_configuration(rng, quiver, max_letters=8, max_idempotents=1)
                results.append(straighten(quiver, cfg))
                results.append(trace_quantum(lift_necklace(quiver, random_necklace(rng, quiver, 6)), dim))
            for necklace, vertex, mark in enumerate_generators(quiver, 3):
                image = generator_image(quiver, dim, necklace, vertex, mark)
                results.append([image.chi(r, lam) for r, lam in _BINDS])
                results.append((image.spliced, image.expanded))
        return results

    clear_straighten_cache()
    clear_trace_cache()
    expected = load()
    bounds = {id(_normal_form): 64, id(_packed_trace): 512}
    stored = dict.fromkeys(bounds, 0)
    put = GenerationalCache.put

    def checked(cache, key, value):
        put(cache, key, value)
        if id(cache) in bounds:
            stored[id(cache)] += cache._weight(value)
            info = cache.cache_info()
            assert info.weight <= bounds[id(cache)] and info.weight == _held_weight(cache, cache._weight)

    clear_straighten_cache()
    clear_trace_cache()
    for cache in (_normal_form, _packed_trace):
        monkeypatch.setattr(cache, "maxweight", bounds[id(cache)])
    monkeypatch.setattr(GenerationalCache, "put", checked)
    assert load() == expected
    assert all(stored[key] > 4 * bound for key, bound in bounds.items())


def test_straighten_entries_share_their_canonical_terms():
    # over a small_quivers() load, equal coded cfgs across the straighten
    # cache's entries are one object, and equal one-term entries one tuple;
    # clearing the cache empties the table of shared terms
    clear_straighten_cache()
    rng = random.Random(6)
    for quiver in small_quivers():
        for _ in range(4):
            straighten(quiver, random_configuration(rng, quiver, max_letters=8, max_idempotents=1))
        x, y = (lift_necklace(quiver, random_necklace(rng, quiver, 4)) for _ in range(2))
        qpa_comm(x, y)
        moment_lift(quiver)
    cfgs, singles = {}, {}
    for _, value in _cache_entries(_normal_form):
        for cfg in value[::2]:
            cfgs.setdefault(cfg, set()).add(id(cfg))
        if len(value) == 2:
            singles.setdefault(value, set()).add(id(value))
    assert len(cfgs) > 50 and all(len(ids) == 1 for ids in cfgs.values())
    assert len(singles) > 10 and all(len(ids) == 1 for ids in singles.values())
    assert any(len(value) > 2 for _, value in _cache_entries(_normal_form))
    assert schedler._TERMS
    clear_straighten_cache()
    assert schedler._TERMS == {} and _normal_form.cache_info().currsize == 0


def test_straightening_splits_no_key():
    # a miss takes the parts its key was made from, so straightening,
    # qpa_mul and the ideal normal forms store each form under the key
    # ``_form_key`` makes of those parts: every key held is the key of its
    # own decoded parts
    clear_straighten_cache()
    rng = random.Random(8)
    for quiver in small_quivers():
        cfg = random_configuration(rng, quiver, max_letters=8, max_idempotents=1)
        straighten(quiver, cfg)
        straighten(quiver, cfg, strategy="middle")
        x, y = (lift_necklace(quiver, random_necklace(rng, quiver, 4)) for _ in range(2))
        qpa_mul(x, y)
        p = random_necklace(rng, quiver, 4, allow_idempotent=False)
        vertex = p.letters[0].source(quiver)
        ideal_normal_forms(quiver, marked_word(quiver, p, vertex, 0), vertex)
    assert _normal_form.cache_info().misses > 50
    entries = _cache_entries(_normal_form)
    assert len(entries) == _normal_form.cache_info().currsize
    for key, _ in entries:
        head, word, succ, idems = split_key(key)
        assert key == _form_key(head, word, succ, list(map(ord, idems)))


def test_contractions_of_one_shape_share_one_plan_of_untracked_ints(L2):
    # a plan depends on the slots' variables, the range lengths and the
    # free variables, not on the letters: the traces of x'x and y'y run one
    # plan, of 4 + 4 triples at d = 2; a load of qtrace's shapes keeps only
    # tuples of ints, which the collector stops tracking
    x, y = Letter(0, False), Letter(1, False)
    clear_trace_cache()
    _plans.cache_clear()
    for a in (x, y):
        trace_quantum_config(L2, (2,), (((a.star(), 1), (a, 2)),), ())
    assert _plans.cache_info() == (1, 1, CACHE_SIZE, 1, 8, PLAN_WEIGHT)
    ((shape, plan),) = _cache_entries(_plans)
    assert shape == (((0, 1), (1, 0)), (2, 2), ()) and _plan_weight(plan) == 8
    rng = random.Random(4)
    for quiver in small_quivers():
        for length, d in ((6, 2), (4, 3)):
            dim = (d,) * len(quiver.vertices)
            trace_quantum(lift_necklace(quiver, random_necklace(rng, quiver, length)), dim)
            block_matrix(lift_necklace(quiver, random_necklace(rng, quiver, 3, allow_idempotent=False)), dim, "quantum")
    # a plan nests four deep (plan, steps, one step, its triples), and each
    # collection untracks one level
    for _ in range(5):
        gc.collect()
    entries = _cache_entries(_plans)
    assert len(entries) == _plans.cache_info().currsize > 10
    assert _plans.cache_info().weight == sum(_plan_weight(plan) for _, plan in entries)
    assert not any(gc.is_tracked(shape) or gc.is_tracked(plan) for shape, plan in entries)


def test_a_plan_over_the_budget_is_used_and_not_kept(J, monkeypatch):
    # a plan heavier than a generation's half of ``PLAN_WEIGHT`` is run and
    # dropped: the trace is exact, and read again the plan is made again
    x = Letter(0, False)
    cfg = (((x.star(), 1), (x, 2), (x.star(), 3), (x, 4)),)
    expected = trace_quantum_config(J, (3,), cfg, ())
    heavy = _plan_weight(_plans.get((((0, 1), (1, 2), (2, 3), (3, 0)), (3,) * 4, ())))
    assert heavy > 3
    _plans.cache_clear()
    monkeypatch.setattr(_plans, "maxweight", 2 * heavy - 1)
    for misses in (1, 2):
        clear_trace_cache()
        assert trace_quantum_config(J, (3,), cfg, ()) == expected
        assert _plans.cache_info()[:5] == (0, misses, CACHE_SIZE, 0, 0)
    monkeypatch.setattr(_plans, "maxweight", 2 * heavy)
    clear_trace_cache()
    assert trace_quantum_config(J, (3,), cfg, ()) == expected
    assert _plans.cache_info()[3:5] == (1, heavy)


def test_a_refused_contraction_leaves_no_plan(J, monkeypatch):
    # ``MAX_INDEX_ASSIGNMENTS`` refuses a trace, a block matrix and a
    # generator image before any plan is looked up or built
    from nhq import repspace

    x, xs = Letter(0, False), Letter(0, True)
    p = canonical_necklace(J, (x, xs, x))
    calls = [
        lambda: trace_quantum_config(J, (2,), (((xs, 1), (x, 2), (x, 3)),), ()),
        lambda: block_matrix(lift_necklace(J, p), (2,), "quantum"),
        lambda: generator_image(J, (2,), p, 0, 0),
    ]
    clear_straighten_cache()
    clear_trace_cache()
    _plans.cache_clear()
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", 7)
    for call in calls:
        with pytest.raises(WorkLimitError, match="above the limit 7"):
            call()
    assert _plans.cache_info()[:5] == (0, 0, CACHE_SIZE, 0, 0)
    monkeypatch.undo()
    for call in calls:
        call()
    assert _plans.cache_info().currsize > 0


def test_a_kept_image_weighs_the_pairs_of_its_four_flat_tuples(J):
    # the image of x x' x at its first visit, d = 2: G's normal form (two
    # (cfg, c) summands) as one flat tuple, T (= P, counted once) and D of
    # ten packed pairs each, 22 pairs in all
    from nhq import repspace

    x, xs = Letter(0, False), Letter(0, True)
    p, dim = canonical_necklace(J, (x, xs, x)), (2,)
    word = marked_word(J, p, 0, 0)
    clear_trace_cache()
    image = generator_image(J, dim, p, 0, 0)
    entry = _packed_trace.get((repspace._image_parts, J, dim, 0, word))
    G, P, T, D = entry
    spliced = ideal_normal_forms(J, word, 0)[0]
    assert G == tuple(item for pair in spliced.items() for item in pair) == image.summands
    assert P is T and (len(G), len(T), len(D)) == (4, 20, 20)
    assert _kept_weight(entry) == 22
