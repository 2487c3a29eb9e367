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
