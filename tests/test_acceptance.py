"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All comparisons are exact (integer/rational arithmetic, zero tolerance).
"""

import random
import time

from nashfan.algebra import MatrixOrdering, Poly, initial_form
from nashfan.fan import cone_of_basis, groebner_fan, sweep_start
from nashfan.groebner import (
    Ideal,
    buchberger,
    normal_form,
    standard_monomials,
)
from nashfan.lattice import Cone2, contains, min_common_multiples, multiplicity, vadd
from nashfan.nash import (
    a3_ordering,
    a3_semigroup,
    dn_set,
    jn_generators,
    l_vector,
    phi_linear,
    phi_specialize,
    pn_family,
)

from oracles import (
    divides,
    golden_j1_basis,
    mcm_oracle,
    phi_ideal_is_power,
    psi,
    random_member,
    s_polynomials,
    theta,
    validate_fan,
)


def report(num, ok, started):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} ({time.perf_counter() - started:.2f}s)")
    assert ok


def test_criterion_1_golden_j1_basis(a3):
    started = time.perf_counter()
    sg, ordering = a3
    basis = buchberger(jn_generators(sg, 1), ordering)
    golden = golden_j1_basis(ordering)
    ok = (
        basis.elements == golden.elements
        and basis.marks() == {(3, 4), (2, 2), (2, 1), (2, 0)}
        and time.perf_counter() - started < 1.0
    )
    report(1, ok, started)


def test_criterion_2_marks_match_family(jn_basis):
    started = time.perf_counter()
    ok = all(jn_basis(n).marks() == pn_family(n).points() for n in range(1, 17))
    ok = ok and time.perf_counter() - started < 300.0
    report(2, ok, started)


def test_criterion_3_standard_monomial_counts(jn_basis):
    started = time.perf_counter()
    ok = True
    for n in range(1, 17):
        std = standard_monomials(jn_basis(n))
        dn = dn_set(n)
        ok = ok and len(std) == (n + 1) * (n + 2) // 2 == len(dn) and std == dn
    report(3, ok, started)


def test_criterion_4_cone_rays_and_multiplicity(a3, jn_basis):
    started = time.perf_counter()
    sg, _ = a3
    ok = True
    for n in range(1, 17):
        gc = cone_of_basis(jn_basis(n))
        expected = (2 * n - 2, -n + 2) if n % 2 == 1 else (2 * n, -n + 1)
        ok = ok and gc.cone == Cone2((2, -1), expected)
        ok = ok and multiplicity(gc.cone) == 2
    report(4, ok, started)


def test_criterion_5_second_ray_witness_support(jn_basis):
    started = time.perf_counter()
    ok = True
    for n in range(2, 17):
        fam, prev = pn_family(n), pn_family(n - 1)
        if n % 2 == 0:
            mark, needed = fam.p, prev.s
        else:
            mark, needed = fam.q[(n - 1) // 2], prev.r[(n - 1) // 2]
        by_mark = {m: g for g, m in jn_basis(n).elements}
        ok = ok and mark in by_mark and needed in by_mark[mark].terms
    report(5, ok, started)


def test_criterion_6_fan_completeness(a3):
    started = time.perf_counter()
    sg, _ = a3
    ok = True
    for n in (1, 2):
        cones = groebner_fan(buchberger(jn_generators(sg, n), sweep_start(sg)))
        ok = ok and validate_fan([gc.cone for gc in cones], sg.support_cone)
        ok = ok and Cone2((2, -1), l_vector(n)) in {gc.cone for gc in cones}
        ok = ok and all(
            cone_of_basis(gc.basis).cone == gc.cone for gc in cones
        )
    ok = ok and time.perf_counter() - started < 120.0
    report(6, ok, started)


def test_criterion_7_engine_property_suite(a3):
    started = time.perf_counter()
    sg, ordering = a3
    rng = random.Random(101)
    ok = True

    # reduced-basis uniqueness under permutation and regeneration
    gens = list(jn_generators(sg, 1).generators)
    expected = buchberger(Ideal(tuple(gens)), ordering)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    ok = ok and buchberger(Ideal(tuple(shuffled)), ordering).elements == expected.elements
    uv = Poly.monomial(sg, (1, 1))
    regenerated = gens + [gens[0] + gens[1], uv * gens[2]]
    ok = ok and buchberger(Ideal(tuple(regenerated)), ordering).elements == expected.elements

    # Buchberger criterion on the outputs for n = 1, 2
    for n in (1, 2):
        basis = buchberger(jn_generators(sg, n), ordering)
        elems = basis.elements
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                for s in s_polynomials(elems[i], elems[j], sg):
                    ok = ok and normal_form(s, basis).is_zero

    # minimal common multiples against the brute-force oracle
    for _ in range(200):
        a, b = random_member(sg, rng, 3), random_member(sg, rng, 3)
        ok = ok and min_common_multiples(sg, a, b) == mcm_oracle(sg, a, b)

    # ordering axioms on random triples
    for _ in range(1000):
        a, b, c = (random_member(sg, rng) for _ in range(3))
        ka, kb, kac, kbc = (ordering.key(e) for e in (a, b, vadd(a, c), vadd(b, c)))
        if divides(sg, b, a):
            ok = ok and ka >= kb
        ok = ok and (kac > kbc) == (ka > kb) and (kac == kbc) == (ka == kb)

    # initial forms are multiplicative
    weights = [(2, -1), (1, 0), (2, 0), (4, -3), (0, 1), (3, -2)]
    for _ in range(200):
        f = Poly(sg, {random_member(sg, rng): rng.randint(-4, 4) for _ in range(4)})
        g = Poly(sg, {random_member(sg, rng): rng.randint(-4, 4) for _ in range(4)})
        w = rng.choice(weights)
        ok = ok and initial_form(w, f * g) == initial_form(w, f) * initial_form(w, g)

    # marked-basis stability at interior weights of every fan cone
    for n in (1, 2):
        ideal = jn_generators(sg, n)
        for gc in groebner_fan(buchberger(ideal, sweep_start(sg))):
            for _ in range(20):
                s, t = rng.randint(1, 9), rng.randint(1, 9)
                w = (
                    s * gc.cone.ray1[0] + t * gc.cone.ray2[0],
                    s * gc.cone.ray1[1] + t * gc.cone.ray2[1],
                )
                refined = MatrixOrdering((w,) + ordering.rows, sg)
                stable = buchberger(ideal, refined).elements == gc.basis.elements
                ok = ok and stable

    report(7, ok, started)


def test_criterion_8_laurent_specialization(a3, jn_basis):
    started = time.perf_counter()
    sg, _ = a3
    ok = not phi_specialize(Poly.monomial(sg, (1, 1)) - 1)
    for n in range(1, 7):
        ok = ok and phi_ideal_is_power(n)
    for n in (2, 4, 6, 8):
        dropped = pn_family(n - 1).points() - pn_family(n).points()
        for g, m in jn_basis(n).elements:
            if m in dropped:
                ok = ok and not phi_specialize(g)
    report(8, ok, started)


def test_criterion_9_combinatorial_lemma_suite():
    started = time.perf_counter()
    sg = a3_semigroup()
    ordering = a3_ordering(sg)
    ok = True

    def shadow(points, b):
        return any(divides(sg, a, b) for a in points)

    for n in range(1, 17):
        fam, nxt = pn_family(n), pn_family(n + 1)
        pts, nxt_pts = fam.points(), nxt.points()

        # inner identities of the family strands
        if n % 2 == 1:
            ok = ok and fam.p == (fam.q[(n - 1) // 2][0], fam.q[(n - 1) // 2][1] - 1)
            ok = ok and fam.s == vadd(fam.r[(n - 1) // 2], (1, 2))
        else:
            q_last = fam.q[(n - 2) // 2]
            ok = ok and fam.p == (q_last[0] - 1, q_last[1] - 2)
            ok = ok and fam.s == vadd(fam.r[n // 2], (2, 3))

        # (1) size, (2) pairwise non-divisibility
        ok = ok and len(pts) == n + 3
        ok = ok and not any(
            divides(sg, a, b) for a in pts for b in pts if a != b
        )

        # (3) endpoint chains
        if n % 2 == 1:
            ok = ok and fam.p == nxt.p
            if n >= 2:
                ok = ok and vadd(pn_family(n - 1).p, (1, 0)) == fam.p
        else:
            ok = ok and fam.s == nxt.s
            ok = ok and vadd(pn_family(n - 1).s, (3, 4)) == fam.s

        # (4) theta maps strands forward
        ok = ok and all(theta(q) == nxt.q[i] for i, q in enumerate(fam.q))
        ok = ok and all(theta(r) == nxt.r[j] for j, r in enumerate(fam.r))
        if n % 2 == 1:
            ok = ok and theta(fam.s) == nxt.r[(n + 1) // 2]
        else:
            ok = ok and theta(fam.p) == nxt.q[n // 2]

        # (5) intersection and theta decomposition
        ok = ok and (pts & nxt_pts) == ({fam.p} if n % 2 == 1 else {fam.s})
        shifted = {theta(a) for a in pts - nxt_pts}
        ok = ok and shifted | {nxt.p, nxt.s} == nxt_pts and not shifted & {nxt.p, nxt.s}

        # (6) shadow decomposition over the bounded region (coordinate sum <= 60)
        dropped = pts - nxt_pts
        for x in range(0, 61):
            for y in range(0, 61 - x):
                b = (x, y)
                if not contains(sg.dual_cone, b):
                    continue
                in_n, in_next = shadow(pts, b), shadow(nxt_pts, b)
                ok = ok and in_n == ((b in dropped) or in_next)
                ok = ok and not ((b in dropped) and in_next)

        # standard-set lemmas: (1) recursion, (3) shift, (4) linear image,
        # (5) dominance of the first family point, (6) extreme pairings
        dn = dn_set(n)
        if n == 1:
            ok = ok and dn == {(0, 0), (1, 0), (1, 1)}
        else:
            prev_dropped = pn_family(n - 1).points() - pts
            ok = ok and dn == dn_set(n - 1) | prev_dropped
            ok = ok and not dn_set(n - 1) & prev_dropped
        ok = ok and {vadd((1, 1), a) for a in dn} <= dn_set(n + 1)

        image = {phi_linear(a) for a in dn}
        if n % 2 == 1:
            half = (n + 1) // 2
            ok = ok and image == set(range(-half, half))
        else:
            half = n // 2
            ok = ok and image == set(range(-half, half + 1))
            ok = ok and [a for a in dn if phi_linear(a) == half] == [pn_family(n - 1).s]

        ok = ok and all(ordering.key(fam.p) > ordering.key(a) for a in dn)

        if n >= 2:
            if n % 2 == 1:
                arg, low = pn_family(n - 1).r[(n - 1) // 2], fam.q[(n - 1) // 2]
                ok = ok and psi(n, arg) == (n - 1) * (n + 2) + 1
            else:
                arg, low = pn_family(n - 1).s, fam.p
            ok = ok and max(psi(n, a) for a in dn) == psi(n, arg)
            ok = ok and min(psi(n, a) for a in pts) == psi(n, low) == psi(n, arg)

    ok = ok and time.perf_counter() - started < 30.0
    report(9, ok, started)
