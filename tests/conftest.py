import contextlib
import signal

import pytest

from nashfan.nash import a3_ordering, a3_semigroup, jn_bases

# the seconds any one test, or the import of one test module, may run;
# the slowest test takes 2.4 s on a 2-vCPU VM
TIME_BOUND_S = 60


@contextlib.contextmanager
def bounded(nodeid):
    """Fail nodeid if it is still running after TIME_BOUND_S, so that a
    loop that stops advancing fails the suite instead of hanging it.  The
    bound is a SIGALRM, so where the platform has none, nothing is bounded."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{nodeid} still running at the {TIME_BOUND_S} s time bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_BOUND_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    # a test module's import runs its module-level code, such as the
    # sweep cases of test_fan.py, outside any test
    with bounded(collector.nodeid):
        yield


@pytest.fixture(autouse=True)
def time_bound(request):
    with bounded(request.node.nodeid):
        yield


@pytest.fixture(scope="session")
def a3():
    sg = a3_semigroup()
    return sg, a3_ordering(sg)


@pytest.fixture(scope="session")
def jn_basis(a3):
    """Memoized reduced bases of J_n, each built from J_(n-1) under a3_ordering."""
    sg, ordering = a3
    tower = jn_bases(sg, ordering)
    cache = []

    def get(n):
        while len(cache) < n:
            cache.append(next(tower))
        return cache[n - 1]

    return get
