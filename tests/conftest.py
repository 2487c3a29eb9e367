import pytest

from nhq.sampling import a2, a3p, jordan, two_loop
from nhq.schedler import clear_straighten_cache
from nhq.trace import clear_trace_cache


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with empty straighten and trace caches, so results
    and acceptance timings do not depend on which tests ran before."""
    clear_straighten_cache()
    clear_trace_cache()


@pytest.fixture
def J():
    return jordan()


@pytest.fixture
def A2():
    return a2()


@pytest.fixture
def A3P():
    return a3p()


@pytest.fixture
def L2():
    return two_loop()


@pytest.fixture
def wrong_spliced_int(monkeypatch):
    """Make one int of every traced generator wrong, at the packed seam:
    G - E of each ``repspace.IdealImage``, the part of the spliced part G
    that the check reads, gains 1 at the key of x_w^N, w the codec's last
    coordinate and N the letters of the spliced configurations, as the
    image leaves ``repspace.ideal_image`` and before any parameter set is
    bound to it, as a wrong int in G would make it.  That is an h-free
    monomial of the target's top Rees grade with no derivative, which no
    generator's trace holds and no chi can absorb."""
    from nhq import trace

    image_of = trace.ideal_image

    def bumped(*args):
        image = image_of(*args)
        unit = image.codec.position(max(image.codec.field))[0]
        key = unit * (image.v + 2)
        image.difference = {**image.difference, key: image.difference.get(key, 0) + 1}
        return image

    monkeypatch.setattr(trace, "ideal_image", bumped)
