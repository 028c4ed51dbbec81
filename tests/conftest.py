import pytest

from nashfan.nash import a3_ordering, a3_semigroup, jn_bases


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
