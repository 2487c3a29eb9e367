import importlib
import pkgutil
import random

import nhq
from nhq import Letter, make_configuration, straighten, trace_quantum_config
from nhq.sampling import random_configuration
from nhq.schedler import CACHE_SIZE, _normal_form, clear_straighten_cache
from nhq.trace import _trace_config, clear_trace_cache


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
    entry = _normal_form(L2, cfg.components, cfg.idempotents)
    assert _normal_form.cache_info().hits == info.hits + 1
    assert len(entry) == len(result.terms) > 1
    assert all(type(c) is int for _, c in entry)


def test_clear_straighten_cache_empties_it(L2):
    straighten(L2, _two_loop_cfg(L2))
    assert _normal_form.cache_info().currsize > 0
    clear_straighten_cache()
    assert _normal_form.cache_info().currsize == 0


def test_clear_trace_cache_empties_it(J):
    x = Letter(0, False)
    trace_quantum_config(J, (2,), (((x.star(), 1), (x, 2)),), ())
    assert _trace_config.cache_info().currsize == 1
    clear_trace_cache()
    assert _trace_config.cache_info().currsize == 0


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
    caches = []
    for mod in pkgutil.iter_modules(nhq.__path__):
        module = importlib.import_module(f"nhq.{mod.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)):
                caches.append((f"{mod.name}.{name}", value.cache_parameters()["maxsize"]))
    for name, maxsize in caches:
        assert maxsize is not None, name
    sizes = dict(caches)
    assert sizes["schedler._normal_form"] == sizes["trace._trace_config"] == CACHE_SIZE
