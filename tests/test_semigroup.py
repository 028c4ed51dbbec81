import random
from itertools import product
from math import gcd

import pytest

from nashfan.lattice import AffineSemigroup, Cone2, contains, min_common_multiples, vdot, vsub

from oracles import InvalidWeight, divides, enumerate_below, mcm_oracle, random_member


def test_is_member_examples(a3):
    sg, _ = a3
    assert contains(sg.dual_cone, (3, 4))
    assert contains(sg.dual_cone, (0, 0))
    assert not contains(sg.dual_cone, (2, 3))


def test_generators_are_the_hilbert_basis(a3):
    sg, _ = a3
    assert sg.generators == ((1, 0), (1, 1), (3, 4))


def test_divides_examples(a3):
    sg, _ = a3
    assert divides(sg, (3, 4), (4, 5))
    assert not divides(sg, (1, 0), (0, 1))
    assert divides(sg, (2, 1), (2, 1))


def test_divides_is_a_partial_order(a3):
    sg, _ = a3
    rng = random.Random(23)
    for _ in range(100):
        a, b, c = (random_member(sg, rng) for _ in range(3))
        assert divides(sg, a, a)
        if divides(sg, a, b) and divides(sg, b, a):
            assert a == b
        if divides(sg, a, b) and divides(sg, b, c):
            assert divides(sg, a, c)


def test_min_common_multiples_examples(a3):
    sg, _ = a3
    assert min_common_multiples(sg, (1, 0), (3, 4)) == {(4, 4)}
    assert min_common_multiples(sg, (1, 0), (1, 1)) == {(2, 1), (4, 4)}
    assert min_common_multiples(sg, (1, 1), (1, 1)) == {(1, 1)}


def test_min_common_multiples_agrees_with_oracle(a3):
    sg, _ = a3
    rng = random.Random(29)
    for _ in range(200):
        a, b = random_member(sg, rng, 3), random_member(sg, rng, 3)
        assert min_common_multiples(sg, a, b) == mcm_oracle(sg, a, b)


def test_min_common_multiples_agrees_with_oracle_on_other_cones():
    # every cyclic quotient cone with d <= 12, and GL2(Z) images whose
    # duals leave the first quadrant
    supports = [
        Cone2((0, 1), (d, -k)) for d in range(2, 13) for k in range(1, d) if gcd(d, k) == 1
    ]
    supports += [Cone2((1, 0), (1, 2)), Cone2((2, 1), (-1, 3)), Cone2((-1, -1), (3, -2))]
    rng = random.Random(59)
    for support in supports:
        sg = AffineSemigroup(support)
        members = [p for p in product(range(-6, 7), repeat=2) if contains(sg.dual_cone, p)]
        for _ in range(5):
            a, b = rng.choice(members), rng.choice(members)
            assert min_common_multiples(sg, a, b) == mcm_oracle(sg, a, b)


def test_min_common_multiples_are_incomparable_multiples(a3):
    sg, _ = a3
    rng = random.Random(31)
    for _ in range(50):
        a, b = random_member(sg, rng), random_member(sg, rng)
        ms = min_common_multiples(sg, a, b)
        assert ms
        for m in ms:
            assert divides(sg, a, m) and divides(sg, b, m)
        for m in ms:
            assert not any(m2 != m and divides(sg, m2, m) for m2 in ms)


def test_min_common_multiples_lie_on_region_boundary(a3):
    # subtracting (1,1) drops both facet slacks of the region by exactly 1,
    # so a minimal common multiple cannot have all slacks strictly positive
    sg, _ = a3
    normals = (sg.support_cone.ray1, sg.support_cone.ray2)
    rng = random.Random(37)
    for _ in range(50):
        a, b = random_member(sg, rng), random_member(sg, rng)
        for m in min_common_multiples(sg, a, b):
            assert any(
                min(vdot(n, vsub(m, a)), vdot(n, vsub(m, b))) == 0
                for n in normals
            )


def test_enumerate_below(a3):
    sg, _ = a3
    assert enumerate_below(sg, (1, 1), 2) == [(0, 0), (1, 0), (1, 1), (2, 0)]
    assert enumerate_below(sg, (1, 1), 0) == [(0, 0)]
    assert enumerate_below(sg, (1, 1), -1) == []


def test_enumerate_below_sorted_and_complete(a3):
    sg, _ = a3
    out = enumerate_below(sg, (2, 1), 9)
    weights = [vdot((2, 1), p) for p in out]
    assert weights == sorted(weights)
    assert all(w <= 9 for w in weights)
    assert set(out) == {
        (x, y)
        for x in range(0, 10)
        for y in range(0, 10)
        if contains(sg.dual_cone, (x, y)) and 2 * x + y <= 9
    }


def test_enumerate_below_invalid_weight(a3):
    sg, _ = a3
    with pytest.raises(InvalidWeight):
        enumerate_below(sg, (0, 1), 5)
    with pytest.raises(InvalidWeight):
        enumerate_below(sg, (-1, -1), 5)
