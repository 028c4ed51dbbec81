import functools
import json
import math
import random
from fractions import Fraction

import pytest

import nashfan.nash as nash_module
from nashfan.algebra import ContextMismatch, MatrixOrdering, Poly, leading_monomial
from nashfan.fan import sweep_start
from nashfan.groebner import buchberger, normal_form, Ideal
from nashfan.lattice import Cone2, contains, cross, multiplicity, primitive, vadd, vdot, vsub
from nashfan.nash import (
    a3_ordering,
    a3_semigroup,
    dn_set,
    jn_bases,
    jn_generators,
    l_vector,
    nash_fan,
    phi_linear,
    phi_specialize,
    pn_family,
    verify_paper,
)
from nashfan.semigroup import AffineSemigroup, divides

from oracles import laurent_gcd, phi_ideal_is_power, psi, theta, validate_fan

N_RANGE = range(1, 13)


def in_family_plus_semigroup(sg, fam_points, b):
    return any(divides(sg, a, b) for a in fam_points)


def test_jn_generators_examples(a3, jn_basis):
    sg, ordering = a3
    ideal = jn_generators(sg, 1)
    assert len(ideal.generators) == 6
    u_minus_1_sq = Poly(sg, {(2, 0): 1, (1, 0): -2, (0, 0): 1})
    assert u_minus_1_sq in set(ideal.generators)
    assert buchberger(ideal, ordering).elements == jn_basis(1).elements
    with pytest.raises(ValueError):
        jn_generators(sg, 0)


def test_jn_bases_match_product_generators(a3):
    """The tower J_n = J_(n-1) * I against the product generators of I^(n+1)."""
    sg, ordering = a3
    for n, basis in zip(range(1, 7), jn_bases(sg, ordering)):
        assert basis == buchberger(jn_generators(sg, n), ordering), n
    # the dual of cone((1,0),(1,2)) leaves the first quadrant
    for c in (Cone2((0, 1), (5, -2)), Cone2((1, 0), (1, 2))):
        sg = AffineSemigroup.from_support_cone(c)
        ordering = MatrixOrdering((vadd(c.ray1, c.ray2), c.ray1), sg)
        for n, basis in zip(range(1, 4), jn_bases(sg, ordering)):
            assert basis == buchberger(jn_generators(sg, n), ordering), (c, n)


def test_pn_family_n1():
    fam = pn_family(1)
    assert fam.p == (2, 0)
    assert fam.q == ((2, 1),)
    assert fam.r == ((2, 2),)
    assert fam.s == (3, 4)
    assert fam.points() == {(2, 0), (2, 1), (2, 2), (3, 4)}


def test_pn_family_size_and_incomparability():
    sg = a3_semigroup()
    for n in N_RANGE:
        fam = pn_family(n)
        pts = fam.points()
        assert len(pts) == n + 3
        for a in pts:
            for b in pts:
                if a != b:
                    assert not divides(sg, a, b)


def test_inner_family_identities():
    for n in N_RANGE:
        fam = pn_family(n)
        if n % 2 == 1:
            assert fam.p == vsub(fam.q[(n - 1) // 2], (0, 1))
            assert fam.s == vadd(fam.r[(n - 1) // 2], (1, 2))
        else:
            assert fam.p == vsub(fam.q[(n - 2) // 2], (1, 2))
            assert fam.s == vadd(fam.r[n // 2], (2, 3))


def test_family_endpoint_chains():
    for n in N_RANGE:
        if n % 2 == 1:
            if n >= 2:
                assert vadd(pn_family(n - 1).p, (1, 0)) == pn_family(n).p
            assert pn_family(n).p == pn_family(n + 1).p
        else:
            assert vadd(pn_family(n - 1).s, (3, 4)) == pn_family(n).s
            assert pn_family(n).s == pn_family(n + 1).s


def test_theta_maps_strands_forward():
    for n in N_RANGE:
        fam, nxt = pn_family(n), pn_family(n + 1)
        for i, q in enumerate(fam.q):
            assert theta(q) == nxt.q[i]
        for j, r in enumerate(fam.r):
            assert theta(r) == nxt.r[j]
        if n % 2 == 1:
            assert theta(fam.s) == nxt.r[(n + 1) // 2]
        else:
            assert theta(fam.p) == nxt.q[n // 2]


def test_consecutive_family_intersection_and_decomposition():
    for n in N_RANGE:
        fam, nxt = pn_family(n), pn_family(n + 1)
        inter = fam.points() & nxt.points()
        assert inter == ({fam.p} if n % 2 == 1 else {fam.s})
        shifted = {theta(a) for a in fam.points() - nxt.points()}
        extra = {nxt.p, nxt.s}
        assert shifted | extra == nxt.points()
        assert not shifted & extra


def test_family_shadow_decomposition():
    # P_n + sigma_Z = (P_n \ P_{n+1}) disjoint-union (P_{n+1} + sigma_Z),
    # checked over all lattice points with bounded coordinate sum
    sg = a3_semigroup()
    for n in N_RANGE:
        fam, nxt = pn_family(n).points(), pn_family(n + 1).points()
        dropped = fam - nxt
        for x in range(0, 61):
            for y in range(0, 61 - x):
                b = (x, y)
                if not contains(sg.dual_cone, b):
                    continue
                in_n = in_family_plus_semigroup(sg, fam, b)
                in_next = in_family_plus_semigroup(sg, nxt, b)
                assert in_n == ((b in dropped) or in_next)
                assert not ((b in dropped) and in_next)


def test_dn_set_examples():
    assert dn_set(1) == {(0, 0), (1, 0), (1, 1)}
    for n in N_RANGE:
        assert len(dn_set(n)) == (n + 1) * (n + 2) // 2


def test_dn_is_the_shadow_complement():
    # D_n = sigma_Z \ (P_n + sigma_Z) within a bounding box
    sg = a3_semigroup()
    for n in (1, 2, 3, 4, 5):
        fam = pn_family(n).points()
        dn = dn_set(n)
        top = max(x + y for x, y in dn) + 8
        box = {
            (x, y)
            for x in range(0, top + 1)
            for y in range(0, top + 1)
            if contains(sg.dual_cone, (x, y)) and x + y <= top
        }
        complement = {b for b in box if not in_family_plus_semigroup(sg, fam, b)}
        assert complement == dn


def test_dn_recursion_and_shift():
    for n in N_RANGE:
        if n >= 2:
            dropped = pn_family(n - 1).points() - pn_family(n).points()
            assert dn_set(n) == dn_set(n - 1) | dropped
            assert not dn_set(n - 1) & dropped
            assert len(dropped) == n + 1
        shifted = {vadd((1, 1), a) for a in dn_set(n)}
        assert shifted <= dn_set(n + 1)


def test_quotient_dimension_jumps():
    for n in range(2, 13):
        assert len(dn_set(n)) - len(dn_set(n - 1)) == n + 1


def test_phi_image_of_dn():
    for n in N_RANGE:
        image = {phi_linear(a) for a in dn_set(n)}
        if n % 2 == 1:
            half = (n + 1) // 2
            assert image == set(range(-half, half))
        else:
            half = n // 2
            assert image == set(range(-half, half + 1))
            tops = [a for a in dn_set(n) if phi_linear(a) == half]
            assert tops == [pn_family(n - 1).s]


def test_p_point_dominates_dn():
    ordering = a3_ordering()
    for n in N_RANGE:
        p = pn_family(n).p
        for a in dn_set(n):
            assert ordering.key(p) > ordering.key(a)


def test_psi_extremes():
    for n in range(2, 13):
        fam = pn_family(n)
        dn = dn_set(n)
        if n % 2 == 1:
            arg = pn_family(n - 1).r[(n - 1) // 2]
            low = fam.q[(n - 1) // 2]
            assert psi(n, arg) == (n - 1) * (n + 2) + 1
        else:
            arg = pn_family(n - 1).s
            low = fam.p
        assert max(psi(n, a) for a in dn) == psi(n, arg)
        assert min(psi(n, a) for a in fam.points()) == psi(n, low)
        assert psi(n, arg) == psi(n, low)
    with pytest.raises(ValueError):
        psi(1, (0, 0))


def test_l_vector_parity():
    assert l_vector(1) == (0, 1)
    assert l_vector(2) == (4, -1)
    assert l_vector(3) == (4, -1)
    assert l_vector(4) == (8, -3)


def test_phi_specialize_examples(a3):
    sg, _ = a3
    assert not phi_specialize(Poly.monomial(sg, (1, 1)) - 1)
    assert phi_specialize(Poly.monomial(sg, (1, 0)) - 1) == {-1: 1, 0: -1}
    assert not phi_specialize(Poly.monomial(sg, (4, 4)) - 1)
    other_sg = a3_semigroup()
    assert phi_specialize(Poly.monomial(other_sg, (3, 4))) == {1: 1}


def test_phi_specialize_context_mismatch():
    from nashfan.semigroup import AffineSemigroup
    quadrant = AffineSemigroup.from_support_cone(Cone2((1, 0), (0, 1)))
    with pytest.raises(ContextMismatch):
        phi_specialize(Poly.monomial(quadrant, (1, 0)))


def test_phi_kernel_is_uv_minus_one(a3):
    # phi(f) = 0 iff f reduces to 0 modulo the ideal of uv - 1
    sg, ordering = a3
    kernel_basis = buchberger(Ideal((Poly.monomial(sg, (1, 1)) - 1,)), ordering)
    rng = random.Random(89)
    gens = sg.generators
    for _ in range(150):
        terms = {}
        for _ in range(3):
            e = (0, 0)
            for g in gens:
                k = rng.randint(0, 2)
                e = (e[0] + k * g[0], e[1] + k * g[1])
            terms[e] = terms.get(e, 0) + rng.randint(-2, 2)
        f = Poly(sg, terms)
        assert (not phi_specialize(f)) == normal_form(f, kernel_basis).is_zero


def power_row(k):
    """Coefficients of (lambda - 1)^k from lambda^0 upward."""
    return [(-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)]


def laurent(row, shift=0):
    return {i + shift: c for i, c in enumerate(row) if c}


def test_laurent_gcd_examples():
    assert laurent_gcd([laurent(power_row(4)), laurent(power_row(2), -5)]) == power_row(2)
    assert laurent_gcd([laurent(power_row(3), 7)]) == power_row(3)
    # coprime images generate the unit ideal
    assert laurent_gcd([{0: 1, 1: 1}, laurent(power_row(2))]) == [1]
    # scalars and Fractions normalize to the monic generator
    assert laurent_gcd([{0: -2, 1: 2}, {3: Fraction(1, 3), 5: Fraction(-1, 3)}]) == power_row(1)


def test_laurent_gcd_of_zero_ideal():
    assert laurent_gcd([]) == []
    assert laurent_gcd([{}, {}]) == []
    assert laurent_gcd([{}, laurent(power_row(2), -1)]) == power_row(2)
    sg = a3_semigroup()
    kernel = [Poly.monomial(sg, e) - 1 for e in ((1, 1), (2, 2), (5, 5))]
    assert laurent_gcd([phi_specialize(g) for g in kernel]) == []


def test_laurent_gcd_negative_controls(a3):
    sg, _ = a3
    # phi(J_(n-1)) is the n-th power, strictly larger than the (n+1)-st
    for n in range(2, 6):
        images = [phi_specialize(g) for g in jn_generators(sg, n - 1).generators]
        assert laurent_gcd(images) == power_row(n)
        assert laurent_gcd(images) != power_row(n + 1)
    # (u^2 - 1)(u^3 v^4 - 1) maps to a unit times (lambda - 1)^2 (lambda + 1)
    u2, u3v4 = Poly.monomial(sg, (2, 0)), Poly.monomial(sg, (3, 4))
    ideal = Ideal(((u2 - 1) * (u3v4 - 1),))
    gcd = laurent_gcd([phi_specialize(g) for g in ideal.generators])
    assert gcd == [1, -1, -1, 1]
    assert all(gcd != power_row(k) for k in range(6))


def test_phi_of_jn_is_the_power_ideal():
    for n in range(1, 7):
        assert phi_ideal_is_power(n)


def test_jn_bases_marks_are_leading_monomials(monkeypatch):
    """Every mark jn_bases hands to buchberger is the leading monomial of
    its product: on A3 to n = 10 and on every cyclic cone with d <= 9 to
    n = 3."""
    ideals = []

    def recording(ideal, ord):
        ideals.append((ideal, ord))
        return buchberger(ideal, ord)

    monkeypatch.setattr(nash_module, "buchberger", recording)
    sg = a3_semigroup()
    cases = [(sg, a3_ordering(sg), 10)]
    for c in cyclic_cones(9):
        csg = AffineSemigroup.from_support_cone(c)
        cases.append((csg, sweep_start(csg), 3))
    for sg, ordering, n_max in cases:
        ideals.clear()
        for _ in zip(range(n_max), jn_bases(sg, ordering)):
            pass
        assert len(ideals) == n_max
        for ideal, ord in ideals:
            assert ideal.marks == tuple(leading_monomial(ord, g) for g in ideal.generators)


def test_verify_paper_builds_each_family_once(monkeypatch):
    """verify_paper carries D_n and P_(n-1) from one n to the next: one
    pn_family per n and no dn_set call, and every claim b still passes."""
    built = []
    family = nash_module.pn_family

    def counting(n):
        built.append(n)
        return family(n)

    def no_dn_set(n):
        raise AssertionError("verify_paper called dn_set")

    monkeypatch.setattr(nash_module, "pn_family", counting)
    monkeypatch.setattr(nash_module, "dn_set", no_dn_set)
    report = verify_paper(12)
    assert report["all_passed"]
    assert built == list(range(1, 13))
    assert [c["n"] for c in report["claims"] if c["claim_id"] == "b"] == list(range(1, 13))


def test_verify_paper_small(a3):
    report = verify_paper(2)
    assert report["all_passed"]
    ids_n1 = [c["claim_id"] for c in report["claims"] if c["n"] == 1]
    assert ids_n1 == ["a", "b", "c", "d"]
    ids_n2 = [c["claim_id"] for c in report["claims"] if c["n"] == 2]
    assert ids_n2 == ["a", "b", "c", "d", "e", "f", "g"]
    data = json.loads(json.dumps(report))
    assert data["all_passed"] is True
    assert len(data["claims"]) == len(report["claims"])
    with pytest.raises(ValueError):
        verify_paper(0)


def fan_cones(c: Cone2, n: int) -> list:
    """The cones of nash_fan(c, n), in the order it returns them."""
    return [gc.cone for gc in nash_fan(c, n)]


def test_nash_fan_a3_is_singular():
    for n in (1, 2):
        cones = fan_cones(Cone2((0, 1), (4, -3)), n)
        mults = [multiplicity(t) for t in cones]
        assert validate_fan(cones, Cone2((0, 1), (4, -3)))
        assert 2 in mults
        if n == 1:
            assert mults[cones.index(Cone2((0, 1), (2, -1)))] == 2


def test_nash_fan_smooth_cone():
    cones = fan_cones(Cone2((1, 0), (0, 1)), 1)
    assert {multiplicity(t) for t in cones} == {1}
    assert validate_fan(cones, Cone2((1, 0), (0, 1)))
    # cross-check the marks of the quadrant basis by direct computation
    sg = AffineSemigroup.from_support_cone(Cone2((1, 0), (0, 1)))
    ordering = MatrixOrdering(((2, 1), (1, 1)), sg)
    basis = buchberger(jn_generators(sg, 1), ordering)
    assert basis.marks() == {(2, 0), (1, 1), (0, 2)}


def test_nash_fan_rejects_bad_coordinates():
    # the dual of cone((1,0),(1,2)) leaves the first quadrant; the fan is
    # computed all the same and agrees with its GL2(Z) image cone((0,1),(2,-1))
    for c in (Cone2((1, 0), (1, 2)), Cone2((0, 1), (2, -1))):
        cones = fan_cones(c, 1)
        assert [multiplicity(t) for t in cones] == [1, 1]
        assert validate_fan(cones, c)
    with pytest.raises(ValueError):
        nash_fan(Cone2((0, 1), (4, -3)), 0)


def test_nash_fan_sweeps_its_cone_in_angular_order():
    """The order of nash_fan, which the ``nash`` JSON lists, tiles the cone:
    the first cone starts at its first ray and each starts where the last ended."""
    for c in cyclic_cones(13):
        for n in (1, 2):
            assert validate_fan(fan_cones(c, n), c), (c, n)


# ---------------------------------------------------------------------------
# n = 1 oracle: the normal fan inside sigma of the Newton polyhedron
# conv{a_i + a_j : det(a_i, a_j) != 0} + sigma^vee of the logarithmic
# Jacobian ideal (Gonzalez Perez-Teissier, RACSAM 2014)

def cyclic_cones(d_max):
    return [
        Cone2((0, 1), (d, -k))
        for d in range(2, d_max + 1)
        for k in range(1, d)
        if math.gcd(d, k) == 1
    ]


def newton_fan_cones(sigma: Cone2) -> list:
    """Cones of the normal fan of the Newton polyhedron inside sigma, by angle."""
    hb = AffineSemigroup.from_support_cone(sigma).generators
    pts = {vadd(a, b) for a in hb for b in hb if cross(a, b)}
    rays = {sigma.ray1, sigma.ray2}
    for p in pts:
        for q in pts:
            if p == q:
                continue
            w = primitive((p[1] - q[1], q[0] - p[0]))
            if not contains(sigma, w):
                continue
            # w is the inner normal of the edge [p, q] iff w.x is least there
            if vdot(w, p) == min(vdot(w, x) for x in pts):
                rays.add(w)
    order = sorted(rays, key=functools.cmp_to_key(lambda a, b: -cross(a, b)))
    return [Cone2(a, b) for a, b in zip(order, order[1:])]


def test_newton_oracle_examples():
    # A3: two cones of multiplicity 2 meeting along (2,-1), by angle
    assert newton_fan_cones(Cone2((0, 1), (4, -3))) == [
        Cone2((4, -3), (2, -1)), Cone2((2, -1), (0, 1)),
    ]
    assert newton_fan_cones(Cone2((1, 0), (0, 1))) == [Cone2((1, 0), (0, 1))]
    assert len(cyclic_cones(12)) == 45


def test_nash_fan_matches_newton_oracle():
    for c in cyclic_cones(12):
        assert fan_cones(c, 1) == newton_fan_cones(c), c


# ---------------------------------------------------------------------------
# GL2(Z) invariance: the Nash blowup does not depend on coordinates

UNIMODULAR = (
    ((0, -1), (1, 0)),      # rotation by 90 degrees
    ((-1, -1), (2, 1)),
    ((0, 1), (1, 0)),       # det -1: swap the coordinates
    ((1, 0), (3, -1)),      # det -1
)


def apply(mat, v):
    return (vdot(mat[0], v), vdot(mat[1], v))


def mapped(mat, c: Cone2) -> Cone2:
    return Cone2(apply(mat, c.ray1), apply(mat, c.ray2))


def assert_gl2_invariant(c: Cone2, n: int):
    """Each cone of the mapped fan is a mapped cone, with its multiplicity."""
    cone_mults = {t: multiplicity(t) for t in fan_cones(c, n)}
    for mat in UNIMODULAR:
        assert {t: multiplicity(t) for t in fan_cones(mapped(mat, c), n)} == {
            mapped(mat, t): m for t, m in cone_mults.items()
        }, (c, mat)


def test_nash_fan_gl2_invariant_n1():
    assert {cross(*mat) for mat in UNIMODULAR} == {1, -1}
    rotated = AffineSemigroup.from_support_cone(mapped(UNIMODULAR[0], Cone2((0, 1), (4, -3))))
    assert any(x < 0 or y < 0 for x, y in rotated.generators)
    for c in cyclic_cones(7):
        assert_gl2_invariant(c, 1)


def test_nash_fan_gl2_invariant_n2():
    for c in (Cone2((0, 1), (4, -3)), Cone2((0, 1), (5, -2))):
        assert_gl2_invariant(c, 2)
