import random
import time
from itertools import product
from math import gcd

import pytest

from nashfan.lattice import (
    AffineSemigroup,
    Cone2,
    cone_coords,
    cone_from_inequalities,
    contains,
    coords_below,
    cross,
    dual_cone,
    hilbert_basis,
    min_common_multiples,
    minimal_points,
    multiplicity,
    points_below,
    primitive,
    rot_ccw,
    vadd,
    vscale,
    vsub,
)

from oracles import (
    InvalidWeight,
    column_walk,
    divides,
    enumerate_below,
    mcm_oracle,
    random_member,
    validate_fan,
    vdot,
)

SIGMA = Cone2((0, 1), (4, -3))
SIGMA_DUAL = Cone2((1, 0), (3, 4))


def random_cone(rng):
    while True:
        r1 = (rng.randint(-9, 9), rng.randint(-9, 9))
        r2 = (rng.randint(-9, 9), rng.randint(-9, 9))
        if r1 != (0, 0) and r2 != (0, 0) and cross(r1, r2) != 0:
            return Cone2(r1, r2)


def test_cone_normalization():
    c = Cone2((0, 2), (4, -3))
    assert c.ray1 == (4, -3) and c.ray2 == (0, 1)
    assert Cone2((4, -3), (0, 1)) == c
    assert cross(c.ray1, c.ray2) > 0


def test_cone_rejects_dependent_rays():
    with pytest.raises(ValueError, match="are linearly dependent"):
        Cone2((1, 2), (2, 4))
    with pytest.raises(ValueError, match="are linearly dependent"):
        Cone2((1, 2), (-1, -2))


def test_primitive_rejects_zero():
    with pytest.raises(ValueError, match="zero vector has no primitive form"):
        primitive((0, 0))


def test_dual_of_sigma():
    assert dual_cone(SIGMA) == SIGMA_DUAL


def test_dual_of_first_quadrant_is_itself():
    q = Cone2((1, 0), (0, 1))
    assert dual_cone(q) == q


def test_dual_is_involutive_on_random_cones():
    rng = random.Random(11)
    for _ in range(100):
        c = random_cone(rng)
        assert dual_cone(dual_cone(c)) == c


def test_contains_examples():
    assert contains(SIGMA, (2, -1))
    assert contains(SIGMA, (0, 0))
    assert not contains(SIGMA_DUAL, (2, 3))


def test_contains_closed_under_addition():
    rng = random.Random(13)
    for _ in range(100):
        c = random_cone(rng)
        pts = [
            vadd((a * c.ray1[0], a * c.ray1[1]), (b * c.ray2[0], b * c.ray2[1]))
            for a, b in [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(2)]
        ]
        assert contains(c, pts[0]) and contains(c, pts[1])
        assert contains(c, vadd(pts[0], pts[1]))


def test_hilbert_basis_of_sigma_dual():
    assert hilbert_basis(SIGMA_DUAL) == {(1, 0), (1, 1), (3, 4)}


def test_hilbert_basis_of_smooth_cone():
    assert hilbert_basis(Cone2((1, 0), (0, 1))) == {(1, 0), (0, 1)}


def test_hilbert_basis_brute_force_cross_check():
    # irreducibles among lattice points with small coordinate sum
    c = Cone2((1, 0), (1, 2))
    pts = [
        (x, y)
        for x in range(0, 7)
        for y in range(0, 7)
        if (x, y) != (0, 0) and contains(c, (x, y)) and x + y <= 6
    ]
    irreducible = {
        p for p in pts
        if not any(
            q != p and contains(c, vsub(p, q))
            for q in pts
        )
    }
    assert hilbert_basis(c) == irreducible == {(1, 0), (1, 1), (1, 2)}


def test_hilbert_basis_elements_irreducible_on_random_cones():
    rng = random.Random(17)
    for _ in range(20):
        c = random_cone(rng)
        hb = hilbert_basis(c)
        bound = 2 * max(abs(x) + abs(y) for x, y in hb)
        box = [
            (x, y)
            for x in range(-bound, bound + 1)
            for y in range(-bound, bound + 1)
            if (x, y) != (0, 0) and contains(c, (x, y))
        ]
        for h in hb:
            assert not any(
                contains(c, vsub(h, q)) and vsub(h, q) != (0, 0) for q in box
            )


def rotations(c):
    """c and its images under the quarter turns, one per quadrant pattern."""
    out = [c]
    for _ in range(3):
        c = Cone2(*(rot_ccw(r) for r in (c.ray1, c.ray2)))
        out.append(c)
    return out


def test_hilbert_basis_complete_on_random_cones():
    # the irreducible nonzero lattice points of the fundamental
    # parallelogram {0 <= alpha, beta <= d}, found by brute force
    rng = random.Random(43)
    for _ in range(10):
        for c in rotations(random_cone(rng)):
            d = multiplicity(c)
            corners = [(0, 0), c.ray1, c.ray2, vadd(c.ray1, c.ray2)]
            xs, ys = [p[0] for p in corners], [p[1] for p in corners]
            pts = [
                (x, y)
                for x in range(min(xs), max(xs) + 1)
                for y in range(min(ys), max(ys) + 1)
                if (x, y) != (0, 0)
                and 0 <= cross((x, y), c.ray2) <= d
                and 0 <= cross(c.ray1, (x, y)) <= d
            ]
            irreducible = {
                p for p in pts
                if not any(q != p and contains(c, vsub(p, q)) for q in pts)
            }
            assert hilbert_basis(c) == irreducible


def test_hilbert_basis_of_a_huge_cyclic_cone():
    # the dual of cone((0,1),(d,1-d)); a bounding-box scan of the
    # parallelogram would take hours here, the staircase walk is linear in d
    d = 10 ** 5
    c = dual_cone(Cone2((0, 1), (d, 1 - d)))
    assert hilbert_basis(c) == {(1, 0), (1, 1), (d - 1, d)}


def alpha_beta(c, p):
    return cross(p, c.ray2), cross(c.ray1, p)


def test_minimal_points_are_the_minimal_points_of_the_region():
    rng = random.Random(47)
    box = range(-12, 13)
    for _ in range(24):
        c = random_cone(rng)
        # a corner near the origin, so the region meets the box
        lo1, lo2 = alpha_beta(c, (rng.randint(-6, 6), rng.randint(-6, 6)))
        lo1 -= rng.randint(0, multiplicity(c))
        mins = minimal_points(c, lo1, lo2)
        assert mins
        for m in mins:
            a, b = alpha_beta(c, m)
            assert a >= lo1 and b >= lo2
            assert not any(q != m and contains(c, vsub(m, q)) for q in mins)
        for p in ((x, y) for x in box for y in box):
            a, b = alpha_beta(c, p)
            if a >= lo1 and b >= lo2:
                assert any(contains(c, vsub(p, m)) for m in mins)


def test_minimal_points_of_a_regular_cone_is_one_point():
    for c in rotations(Cone2((1, 0), (3, 1))):
        assert multiplicity(c) == 1
        assert minimal_points(c, 0, 0) == {(0, 0)}
        assert minimal_points(c, 2, -3) == {vadd(vscale(2, c.ray1), vscale(-3, c.ray2))}


def test_minimal_points_translate_with_the_offsets():
    rng = random.Random(53)
    for _ in range(40):
        c = random_cone(rng)
        u = (rng.randint(-9, 9), rng.randint(-9, 9))
        du1, du2 = alpha_beta(c, u)
        assert minimal_points(c, du1, du2) == {u}
        lo1, lo2 = rng.randint(-5, 5), rng.randint(-5, 5)
        assert minimal_points(c, lo1 + du1, lo2 + du2) == {
            vadd(m, u) for m in minimal_points(c, lo1, lo2)
        }
        assert minimal_points(c, 1 + du1, du2) == {
            vadd(m, u) for m in hilbert_basis(c) - {c.ray2}
        }


def test_points_below_is_the_filtered_box():
    """points_below against the lattice points of a box that no corner
    divides, with one corner on each ray and a few random ones; a corner
    set missing a ray gives None, and a corner at the origin leaves none."""
    rng = random.Random(59)
    for _ in range(8):
        for c in rotations(random_cone(rng)):
            on_rays = [vscale(rng.randint(1, 3), c.ray1), vscale(rng.randint(1, 3), c.ray2)]
            span = [(0, 0), *on_rays, vadd(*on_rays)]
            xs, ys = [p[0] for p in span], [p[1] for p in span]
            members = [
                (x, y)
                for x in range(min(xs), max(xs) + 1)
                for y in range(min(ys), max(ys) + 1)
                if contains(c, (x, y))
            ]
            corners = on_rays + rng.sample(members, 3)
            below = {p for p in members if not any(contains(c, vsub(p, q)) for q in corners)}
            assert points_below(c, corners) == below, (c, corners)
            for ray in (c.ray1, c.ray2):
                off_ray = [q for q in corners if cross(q, ray) != 0]
                assert points_below(c, off_ray) is None, (c, off_ray)
            assert points_below(c, corners + [(0, 0)]) == set()
    assert points_below(SIGMA_DUAL, []) is None


def random_corner(rng, c, span):
    """A lattice point of c with both cone coordinates at most span."""
    d = multiplicity(c)
    while True:
        x, y = vadd(vscale(rng.randint(0, span), c.ray1), vscale(rng.randint(0, span), c.ray2))
        if x % d == 0 and y % d == 0:
            return (x // d, y // d)


def test_points_below_is_the_column_walk():
    """points_below, which walks each rectangle of the staircase along its
    shorter side, against the column walk of oracles on 1,200 seeded
    staircases in cones of multiplicity at most 60, in every quadrant
    pattern, with up to 8 corners: repeated corners, corners that share an
    α, corners on both rays or on one, the origin as a corner, and no
    corner at all.  coords_below returns each point once."""
    rng = random.Random(67)
    outcomes = {"none": 0, "empty": 0, "points": 0}
    for case in range(1200):
        c = random_cone(rng)
        if multiplicity(c) > 60:
            d = rng.randint(2, 60)
            c = Cone2((0, 1), (d, -rng.choice([k for k in range(1, d) if gcd(k, d) == 1])))
        c = rotations(c)[case % 4]
        d = multiplicity(c)
        span = rng.choice((2, d // 2 + 1, d, 3 * d))
        corners = [random_corner(rng, c, span) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.9:
            corners.append(vscale(rng.randint(1, 3), c.ray2))  # α = 0
        if rng.random() < 0.9:
            corners.append(vscale(rng.randint(1, 3), c.ray1))  # β = 0
        if corners and rng.random() < 0.5:
            corners.append(rng.choice(corners))
        if corners and rng.random() < 0.5:
            corners.append(vadd(rng.choice(corners), c.ray2))  # same α
        if rng.random() < 0.05:
            corners.append((0, 0))
        if rng.random() < 0.05:
            corners = []
        rng.shuffle(corners)
        corners = corners[:8]
        want = column_walk(c, corners)
        assert points_below(c, corners) == want, (c, corners)
        if want is None:
            outcomes["none"] += 1
        else:
            outcomes["points" if want else "empty"] += 1
            assert len(coords_below(c, [cone_coords(c, p) for p in corners])) == len(want)
    assert min(outcomes.values()) >= 30, outcomes


def test_points_below_costs_by_its_output():
    """A cone of multiplicity 10^9 + 1 whose corners leave nine points, in
    each quadrant pattern: the walk takes the 3 rows of the wide, low
    rectangle between the corners (3, 3) and (2d, 0) of cone coordinates,
    where the column walk would visit 2·10^9 columns.

    In cone((0,1),(d,-1)), α(x, y) = x and β(x, y) = d·y + x.  The corners
    (0, 2), (3, 0) and (2d, -2) have (α, β) = (0, 2d), (3, 3) and (2d, 0).
    Below them lie x < 3 with d·y + x < 2d, that is y in {0, 1}, and
    3 <= x < 2d with d·y + x < 3, that is y = -1 and x - d in {0, 1, 2}."""
    d = 10 ** 9 + 1
    c = Cone2((0, 1), (d, -1))
    corners = [(0, 2), (3, 0), (2 * d, -2)]
    want = {(x, y) for x in range(3) for y in range(2)} | {(d + i, -1) for i in range(3)}
    start = time.perf_counter()
    for _ in range(4):
        assert points_below(c, corners) == want
        c = Cone2(rot_ccw(c.ray1), rot_ccw(c.ray2))
        corners = [rot_ccw(p) for p in corners]
        want = {rot_ccw(p) for p in want}
    assert time.perf_counter() - start < 5


def test_multiplicity_examples():
    assert multiplicity(Cone2((2, -1), (0, 1))) == 2
    assert multiplicity(Cone2((1, 0), (0, 1))) == 1
    assert multiplicity(Cone2((2, -1), (4, -1))) == 2


def test_multiplicity_one_iff_two_hilbert_generators():
    rng = random.Random(19)
    for _ in range(40):
        c = random_cone(rng)
        assert (multiplicity(c) == 1) == (len(hilbert_basis(c)) == 2)


def test_cone_from_inequalities_examples():
    assert cone_from_inequalities([(2, 4)], SIGMA) == Cone2((0, 1), (2, -1))
    assert cone_from_inequalities([], SIGMA) == SIGMA
    q = Cone2((1, 0), (0, 1))
    assert cone_from_inequalities([(1, 0), (0, 1)], q) == q


def test_cone_from_inequalities_deduplicates_normals():
    assert cone_from_inequalities([(2, 4), (1, 2), (3, 6)], SIGMA) == Cone2((0, 1), (2, -1))


def test_cone_from_inequalities_empty_interior():
    with pytest.raises(ValueError, match="is not 2-dimensional"):
        cone_from_inequalities([(1, 0), (-1, 0)], Cone2((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="is not 2-dimensional"):
        cone_from_inequalities([(-1, 0), (0, -1)], Cone2((1, 0), (0, 1)))


def test_cone_from_inequalities_matches_a_box_of_lattice_points():
    """Random supports and normals with coordinates up to 12, zero and
    antiparallel normals included, against the lattice points of a box of
    radius 30.  Every ray of the feasible cone is a support ray or a normal
    turned by 90 degrees, so the sum of its rays, an interior point, lies
    in the box whenever the cone is full-dimensional."""
    rng = random.Random(23)
    box = [(x, y) for x in range(-30, 31) for y in range(-30, 31)]
    raised = 0
    for _ in range(150):
        while True:
            r1, r2 = [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(2)]
            if cross(r1, r2):
                break
        support = Cone2(r1, r2)
        normals = [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(rng.randint(0, 4))]
        if normals and rng.random() < 0.3:
            normals.append((0, 0))
        if normals and rng.random() < 0.3:
            n = rng.choice(normals)
            normals.append((-2 * n[0], -2 * n[1]))
        rng.shuffle(normals)
        dual = dual_cone(support)
        strict = [v for v in normals if v != (0, 0)] + [dual.ray1, dual.ray2]
        feasible = {p for p in box if contains(support, p) and all(vdot(p, v) >= 0 for v in normals)}
        interior = any(all(vdot(p, v) > 0 for v in strict) for p in feasible)
        try:
            cone = cone_from_inequalities(normals, support)
        except ValueError as exc:
            assert "is not 2-dimensional" in str(exc), (support, normals)
            raised += 1
            assert not interior, (support, normals)
            continue
        assert interior, (support, normals)
        assert {p for p in box if contains(cone, p)} == feasible, (support, normals)
    assert 30 < raised < 120


def test_validate_fan_examples():
    good = [Cone2((2, -1), (4, -3)), Cone2((0, 1), (2, -1))]
    assert validate_fan(good, SIGMA)
    # the same tiling out of angular order
    assert not validate_fan(good[::-1], SIGMA)
    assert validate_fan([SIGMA], SIGMA)
    overlapping = [Cone2((0, 1), (4, -3)), Cone2((2, -1), (4, -3))]
    assert not validate_fan(overlapping, SIGMA)


def test_validate_fan_rejects_gaps_and_empty():
    gap = [Cone2((0, 1), (2, -1))]
    assert not validate_fan(gap, SIGMA)
    assert not validate_fan([], SIGMA)


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
