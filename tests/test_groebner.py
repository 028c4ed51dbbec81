import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import nashfan.fan as fan_module
import nashfan.nash as nash_module
from nashfan import groebner
from nashfan.algebra import MatrixOrdering, Poly, leading_monomial
from nashfan.fan import cone_of_basis, groebner_fan, sweep_start
from nashfan.groebner import (
    Ideal,
    MarkedBasis,
    PairQueueExhausted,
    QuotientNotFinite,
    buchberger,
    ideal_membership,
    normal_form,
    standard_monomials,
)
from nashfan.lattice import Cone2, contains, vadd, vdot, vsub
from nashfan.nash import a3_semigroup, jn_basis_at, jn_generators
from nashfan.semigroup import AffineSemigroup, divides

from oracles import certified, enumerate_below, in_dual, in_jn, s_polynomials, standard_set
from test_nash import cyclic_cones

GOLDEN = Path(__file__).parent / "golden" / "a3_j1_basis.json"


def golden_basis(ordering):
    return MarkedBasis.from_json(ordering, json.loads(GOLDEN.read_text()))


def random_ordering(sg, rng):
    r1, r2 = sg.support_cone.ray1, sg.support_cone.ray2
    interior = vadd(r1, r2)
    while True:
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        w = (a * r1[0] + b * r2[0], a * r1[1] + b * r2[1])
        if w == (0, 0):
            continue
        if w[0] * interior[1] != w[1] * interior[0]:
            return MatrixOrdering((w, interior), sg)


def rank(rows):
    """Rank of a list of Fraction vectors by Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def quotient_dim_oracle(sg, ideal, bound):
    """dim S/I by linear algebra over weight-truncated monomials."""
    monos = enumerate_below(sg, (1, 1), bound)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in ideal.generators:
        top = max(e[0] + e[1] for e in g.support())
        for e in enumerate_below(sg, (1, 1), bound - top):
            shifted = g.shift(e)
            if all(m in index for m in shifted.support()):
                row = [Fraction(0)] * len(monos)
                for m, c in shifted.terms.items():
                    row[index[m]] = c
                rows.append(row)
    return len(monos) - rank(rows)


def reference_reduce(f, pairs, ord):
    """Division remainder by monic (poly, mark) pairs, by the textbook loop.

    Shares no divisibility code with the engine's kernel: the remainder's
    largest reducible term is found with ``leading_monomial``, its divisors
    with ``divides``, and the smallest mark with ``min(..., key=ord.key)``.
    """
    sg = ord.sg
    r, out = f, Poly.zero(sg)
    while not r.is_zero:
        e = leading_monomial(ord, r)
        term = Poly.monomial(sg, e, r.coeff(e))
        divisors = [(g, m) for g, m in pairs if divides(sg, m, e)]
        if divisors:
            g, m = min(divisors, key=lambda gm: ord.key(gm[1]))
            r = r - r.coeff(e) * g.shift(vsub(e, m))
        else:
            out, r = out + term, r - term
    return out


def row_pair(row, sg):
    """The (poly, mark) pair of a ``divisor_table`` row: the poly is its
    mark term plus its tail."""
    _, _, lc, tail, mark = row
    return Poly(sg, {mark: lc, **{(u0, u1): c for u0, u1, c in tail}}), mark


KERNEL_CONES = cyclic_cones(7) + [
    a3_semigroup().support_cone,
    Cone2((1, 0), (1, 2)),
    Cone2((2, 1), (-1, 3)),
]


def kernel_orderings(sg):
    """sweep_start(sg) and the ordering led by sigma's other ray."""
    s = sg.support_cone
    return sweep_start(sg), MatrixOrdering((s.ray2, vadd(s.ray1, s.ray2)), sg)


def random_kernel_poly(sg, rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = (0, 0)
        for g in sg.generators:
            k = rng.randint(0, 2)
            e = (e[0] + k * g[0], e[1] + k * g[1])
        num = rng.randint(-9, 9)
        terms[e] = num if rng.random() < 0.5 else Fraction(num, rng.randint(1, 4))
    return Poly(sg, terms)


def test_kernel_divisibility_agrees_with_divides():
    """x^q reduces x^p to zero iff divides(q, p), for all p, q in a box.

    ``_reduce`` and ``divides`` both read ``lattice.cone_coords``, so each
    (p, q) is also checked against the definition of σ^∨, which uses
    neither: p - q pairs nonnegatively with both rays of σ.  Divisibility
    is invariant under translation, so the box is moved by a multiple of
    an interior point of the exponent cone until, by that definition, it
    lies in S.
    """
    box = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    for c in KERNEL_CONES:
        sg = AffineSemigroup.from_support_cone(c)
        ord = sweep_start(sg)
        inner = vadd(sg.dual_cone.ray1, sg.dual_cone.ray2)
        k = 0
        while not all(in_dual(sg, (p[0] + k * inner[0], p[1] + k * inner[1])) for p in box):
            k += 1
        mono = {p: Poly.monomial(sg, (p[0] + k * inner[0], p[1] + k * inner[1])) for p in box}
        for p in box:
            for q in box:
                (mark,) = mono[q].terms
                table = groebner.divisor_table([(mono[q], mark)], ord)
                reduced = groebner._reduce(mono[p], table, ord).is_zero
                assert reduced == divides(sg, q, p), (c, p, q)
                assert reduced == in_dual(sg, vsub(p, q)), (c, p, q)


def monic_products(sg, ord, n):
    """The product generators of J_n, made monic under ord.

    Not a Groebner basis: marks repeat and divide each other, so the
    smallest-mark tie-break decides the remainder.
    """
    pairs = []
    for g in jn_generators(sg, n).generators:
        m = leading_monomial(ord, g)
        pairs.append((g * Fraction(1, g.coeff(m)), m))
    return pairs


def test_reduce_matches_reference_division():
    """_reduce by a non-Groebner divisor list; no basis is built with it."""
    rng = random.Random(89)
    for c in KERNEL_CONES:
        sg = AffineSemigroup.from_support_cone(c)
        for ord in kernel_orderings(sg):
            pairs = monic_products(sg, ord, 2)
            table = groebner.divisor_table(pairs, ord)
            for _ in range(12):
                f = random_kernel_poly(sg, rng)
                assert groebner._reduce(f, table, ord) == reference_reduce(f, pairs, ord), (c, ord)


def test_reduce_pseudo_divides_by_non_monic_divisors():
    """_reduce by primitive integer divisors with lc != 1 returns a nonzero
    multiple of the remainder by their monic versions, in integers.

    The product generators of J_2 are monic, so each gets its leading
    coefficient replaced by an integer l != 1; their constant term is +-1,
    so they stay primitive.
    """
    rng = random.Random(103)
    for c in KERNEL_CONES:
        sg = AffineSemigroup.from_support_cone(c)
        for ord in kernel_orderings(sg):
            pairs = []
            for g in jn_generators(sg, 2).generators:
                m = leading_monomial(ord, g)
                lc = rng.choice((-3, -2, -1, 2, 3, 4, 6))
                pairs.append((g + (lc - 1) * Poly.monomial(sg, m), m))
            monic = [(g * Fraction(1, g.coeff(m)), m) for g, m in pairs]
            table = groebner.divisor_table(pairs, ord)
            for _ in range(12):
                f = random_kernel_poly(sg, rng)
                f = f * math.lcm(*[v.denominator for v in f.terms.values()])
                got = groebner._reduce(f, table, ord)
                want = reference_reduce(f, monic, ord)
                assert all(type(v) is int for v in got.terms.values()), (c, ord)
                assert got.support() == want.support(), (c, ord)
                if want.is_zero:
                    continue
                e = next(iter(want.terms))
                assert got == want * (Fraction(got.coeff(e)) / want.coeff(e)), (c, ord)


def padded_orderings(sg):
    """kernel_orderings with a zero row in front and a multiple of the
    first row, or its negative, before the second: the same orders."""
    for ord in kernel_orderings(sg):
        (p0, p1), q = ord.rows
        for k in (2, -1):
            yield MatrixOrdering(((0, 0), (p0, p1), (k * p0, k * p1), q), sg)


def test_reduce_emits_terms_in_decreasing_order():
    """_reduce's result lists its terms in decreasing order, so its first
    term is its leading_monomial: on random f, by monic and by non-monic
    divisors, under the kernel orderings and padded copies of them, whose
    remainders also match the reference division."""
    rng = random.Random(107)
    checked = 0
    for c in KERNEL_CONES:
        sg = AffineSemigroup.from_support_cone(c)
        for ord in (*kernel_orderings(sg), *padded_orderings(sg)):
            monic = monic_products(sg, ord, 2)
            non_monic = [
                (g + (rng.choice((2, 3, -2)) - 1) * Poly.monomial(sg, m), m) for g, m in monic
            ]
            for pairs in (monic, non_monic):
                table = groebner.divisor_table(pairs, ord)
                for _ in range(6):
                    f = random_kernel_poly(sg, rng)
                    f = f * math.lcm(*[v.denominator for v in f.terms.values()])
                    r = groebner._reduce(f, table, ord)
                    if pairs is monic:
                        assert r == reference_reduce(f, pairs, ord), (c, ord)
                    if r.is_zero:
                        continue
                    assert next(iter(r.terms)) == leading_monomial(ord, r), (c, ord)
                    assert list(r.terms) == sorted(r.terms, key=ord.key, reverse=True), (c, ord)
                    checked += 1
    assert checked > 500


def test_buchberger_table_matches_a_fresh_table(a3, monkeypatch):
    """The divisor table buchberger keeps by bisect insertion equals, at
    every _reduce call before the final pass, divisor_table of the working
    elements so far: the primitive remainders of the earlier calls, marked
    at their leading monomials.  With no colength, the S-pairs run too."""
    calls, final = [], []
    reduce, interreduce = groebner._reduce, groebner.interreduce

    def recording(f, table, ord):
        r = reduce(f, table, ord)
        if not final:
            calls.append((list(table), r))
        return r

    def marking(pairs, ord):
        final.append(True)
        return interreduce(pairs, ord)

    monkeypatch.setattr(groebner, "_reduce", recording)
    monkeypatch.setattr(groebner, "interreduce", marking)
    sg, ordering = a3
    csg = AffineSemigroup.from_support_cone(Cone2((0, 1), (7, -3)))
    for ideal, ord in ((jn_generators(sg, 3), ordering), (jn_generators(csg, 2), sweep_start(csg))):
        calls.clear()
        final.clear()
        buchberger(ideal, ord)
        working = []
        for table, r in calls:
            assert table == groebner.divisor_table(working, ord)
            if not r.is_zero:
                g = groebner._primitive(r)
                working.append((g, leading_monomial(ord, g)))
        assert len(calls) > len(ideal.generators) and len(working) > 4


def test_normal_form_matches_reference_division():
    rng = random.Random(97)
    for c in KERNEL_CONES:
        sg = AffineSemigroup.from_support_cone(c)
        for ord in kernel_orderings(sg):
            basis = jn_basis_at(sg, ord, 2)
            for _ in range(12):
                f = random_kernel_poly(sg, rng)
                assert normal_form(f, basis) == reference_reduce(f, basis.elements, ord), (c, ord)


def test_ideal_rejects_bad_generators(a3):
    sg, _ = a3
    with pytest.raises(ValueError):
        Ideal(())
    with pytest.raises(ValueError):
        Ideal((Poly.zero(sg),))


def test_marked_basis_validation(a3):
    """from_json rejects each way a basis can fail to be reduced with a
    ValueError, never a KeyError, whose message names the offending mark."""
    sg, ordering = a3

    def check(pairs, mark):
        data = {"elements": [{"poly": g.to_json(), "mark": list(m)} for g, m in pairs]}
        with pytest.raises(ValueError, match=re.escape(str(mark))):
            MarkedBasis.from_json(ordering, data)

    def x(e):
        return Poly.monomial(sg, e)

    u2 = x((2, 0)) - 1
    v3 = x((3, 4)) - 1
    check([(u2 - x((1, 0)), (1, 0))], (1, 0))                  # not the leading monomial
    check([(u2, (1, 1))], (1, 1))                              # not a term
    check([(2 * u2, (2, 0))], (2, 0))                          # not monic
    check([(u2, (2, 0)), (x((3, 2)) + x((2, 0)), (3, 2))], (3, 2))  # (2,0) divides a tail term
    check([(u2, (2, 0)), (u2 - x((1, 0)), (2, 0))], (2, 0))    # equal marks
    check([(v3, (3, 4)), (x((6, 8)) - 1, (6, 8))], (6, 8))     # (3,4) divides (6,8)


def test_normal_form_examples(a3, jn_basis):
    sg, _ = a3
    basis = jn_basis(1)
    u_minus_1_sq = (Poly.monomial(sg, (1, 0)) - 1) ** 2
    assert normal_form(u_minus_1_sq, basis).is_zero
    one = Poly.monomial(sg, (0, 0))
    assert normal_form(one, basis) == one
    g0, _ = basis.elements[0]
    assert normal_form(g0.shift((4, 4)), basis).is_zero


def test_normal_form_support_avoids_marks(a3, jn_basis):
    sg, _ = a3
    basis = jn_basis(2)
    rng = random.Random(61)
    std = standard_monomials(basis)
    gens = sg.generators
    for _ in range(30):
        terms = {}
        for _ in range(4):
            e = (0, 0)
            for g in gens:
                k = rng.randint(0, 3)
                e = (e[0] + k * g[0], e[1] + k * g[1])
            terms[e] = rng.randint(-3, 3)
        f = Poly(sg, terms)
        r = normal_form(f, basis)
        assert r.support() <= std
        assert ideal_membership(f - r, basis)


def test_s_polynomials_examples(a3):
    sg, ordering = a3
    u = (Poly.monomial(sg, (1, 0)) - 1, (1, 0))
    uv = (Poly.monomial(sg, (1, 1)) - 1, (1, 1))
    big = (Poly.monomial(sg, (3, 4)) - 1, (3, 4))
    two = s_polynomials(u, uv, sg)
    assert len(two) == 2
    assert len(s_polynomials(u, big, sg)) == 1
    assert all(s.is_zero for s in s_polynomials(u, u, sg))


def test_buchberger_golden_j1(a3, jn_basis):
    _, ordering = a3
    assert jn_basis(1).elements == golden_basis(ordering).elements
    assert jn_basis(1).marks() == {(2, 0), (2, 1), (2, 2), (3, 4)}


def test_buchberger_principal_ideal(a3):
    sg, ordering = a3
    u_minus_1 = Poly.monomial(sg, (1, 0)) - 1
    basis = buchberger(Ideal((u_minus_1,)), ordering)
    assert basis.elements == ((u_minus_1, (1, 0)),)
    assert normal_form(u_minus_1 * u_minus_1, basis).is_zero


def test_final_pass_divides_by_the_leading_coefficient(a3):
    """The working basis keeps 2u - 1 primitive over the integers; only the
    final pass divides it by its lc, which leaves a Fraction in the tail."""
    sg, ordering = a3
    u = Poly.monomial(sg, (1, 0))
    basis = buchberger(Ideal((2 * u - 1,)), ordering)
    assert basis.elements == ((u - Fraction(1, 2), (1, 0)),)
    (g, mark), = basis.elements
    assert type(g.terms[mark]) is int and g.terms[mark] == 1
    assert type(g.terms[(0, 0)]) is Fraction and g.terms[(0, 0)] == Fraction(-1, 2)
    assert basis.to_json()["elements"][0]["poly"]["terms"] == [
        {"exp": [0, 0], "num": -1, "den": 2},
        {"exp": [1, 0], "num": 1, "den": 1},
    ]
    # lc = -1 only changes sign and stays integral
    (g, _), = buchberger(Ideal((1 - u,)), ordering).elements
    assert g == u - 1 and all(type(c) is int for c in g.terms.values())


def test_a3_tower_coefficients_are_int(jn_basis):
    for n in range(1, 11):
        for g, _ in jn_basis(n).elements:
            assert all(type(c) is int for c in g.terms.values()), n


def test_working_basis_stays_integral(a3, monkeypatch):
    """Every f that buchberger divides has int coefficients, and every divisor
    is either all-int (a primitive working element) or monic (a kept element
    of the final pass), also on a sweep that ends with Fraction coefficients.

    The fan sweep's flip also divides outside buchberger: its lift divides a
    basis element, which may hold Fractions, by the previous cone's basis,
    and its inter-reduction divides the lifts by the kept ones.  Both divide
    exactly, by monic divisors only."""
    non_monic = []
    outside = []
    running = []

    def track(module):
        inner = module.buchberger

        def running_buchberger(*args, **kwargs):
            running.append(True)
            try:
                return inner(*args, **kwargs)
            finally:
                running.pop()

        monkeypatch.setattr(module, "buchberger", running_buchberger)

    inner = groebner._reduce

    def checking(f, table, ord):
        pairs = [row_pair(row, ord.sg) for row in table]
        if running:
            assert all(type(c) is int for c in f.terms.values()), f
        else:
            assert all(g.coeff(m) == 1 for g, m in pairs), f
            outside.append(f)
        for g, m in pairs:
            assert g.coeff(m) == 1 or all(type(c) is int for c in g.terms.values()), g
            if g.coeff(m) != 1:
                non_monic.append(m)
        return inner(f, table, ord)

    track(nash_module)
    track(fan_module)
    monkeypatch.setattr(groebner, "_reduce", checking)
    sg, ordering = a3
    jn_basis_at(sg, ordering, 8)
    assert not outside
    for c in (Cone2((0, 1), (7, -3)), Cone2((0, 1), (11, -4))):
        sg = AffineSemigroup.from_support_cone(c)
        groebner_fan(jn_basis_at(sg, sweep_start(sg), 2))
    assert non_monic
    assert any(type(c) is Fraction for f in outside for c in f.terms.values())


def test_buchberger_invariant_under_generator_permutation(a3):
    sg, ordering = a3
    gens = list(jn_generators(sg, 2).generators)
    rng = random.Random(67)
    expected = buchberger(Ideal(tuple(gens)), ordering)
    for _ in range(3):
        rng.shuffle(gens)
        assert buchberger(Ideal(tuple(gens)), ordering).elements == expected.elements


def test_buchberger_invariant_under_regeneration(a3):
    # same ideal from a redundant generating set: products plus combinations
    sg, ordering = a3
    gens = list(jn_generators(sg, 1).generators)
    uv = Poly.monomial(sg, (1, 1))
    redundant = gens + [gens[0] + gens[1], uv * gens[2], gens[3] - 2 * gens[5]]
    expected = buchberger(Ideal(tuple(gens)), ordering)
    got = buchberger(Ideal(tuple(redundant)), ordering)
    assert got.elements == expected.elements


def assert_s_polynomials_reduce_to_zero(basis):
    """Every S-polynomial of the basis, at every minimal common multiple,
    reduces to zero by the reference division: Buchberger's criterion."""
    sg, elems = basis.sg, basis.elements
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            for s in s_polynomials(elems[i], elems[j], sg):
                assert reference_reduce(s, elems, basis.ordering).is_zero, (elems[i][1], elems[j][1])


CRITERION_CONES = cyclic_cones(7) + [Cone2((1, 0), (1, 2)), Cone2((2, 1), (-1, 3))]


def test_buchberger_criterion_on_output(jn_basis):
    for n in range(1, 9):
        assert_s_polynomials_reduce_to_zero(jn_basis(n))


def test_buchberger_criterion_on_every_fan_cone():
    for c in CRITERION_CONES:
        sg = AffineSemigroup.from_support_cone(c)
        for gc in groebner_fan(jn_basis_at(sg, sweep_start(sg), 2)):
            assert_s_polynomials_reduce_to_zero(gc.basis)


def test_cap_counts_only_reduced_pairs(a3, monkeypatch):
    """With no colength every pushed S-pair is reduced, so the cap is exact:
    the number of pairs pushed suffices and one less raises."""
    pushed = []
    mcm = groebner.min_common_multiples

    def recording(*args):
        result = mcm(*args)
        pushed.append(len(result))
        return result

    monkeypatch.setattr(groebner, "min_common_multiples", recording)
    sg, ordering = a3
    ideal = jn_generators(sg, 3)
    expected = buchberger(ideal, ordering)
    pairs = sum(pushed)
    assert pairs > 0
    assert buchberger(ideal, ordering, max_reductions=pairs).elements == expected.elements
    with pytest.raises(PairQueueExhausted):
        buchberger(ideal, ordering, max_reductions=pairs - 1)


def test_one_min_common_multiples_call_per_pair(a3, monkeypatch):
    """buchberger computes the mcms of each pair of working elements once,
    when the later one is inserted and its pairs are pushed."""
    calls = []
    mcm = groebner.min_common_multiples

    def recording(sg, a, b):
        calls.append((a, b))
        return mcm(sg, a, b)

    monkeypatch.setattr(groebner, "min_common_multiples", recording)
    sg, ordering = a3
    gb2 = jn_basis_at(sg, ordering, 2)
    binomials = [Poly.monomial(sg, a) - 1 for a in sg.generators]
    for ideal in (
        jn_generators(sg, 3),
        Ideal(tuple(g * b for g, _ in gb2.elements for b in binomials)),
    ):
        calls.clear()
        basis = buchberger(ideal, ordering)
        working = list(dict.fromkeys(m for pair in calls for m in pair))
        assert calls == [(working[i], working[j]) for j in range(len(working)) for i in range(j)]
        assert basis.marks() <= set(working)


def test_standard_monomials_examples(a3, jn_basis):
    assert standard_monomials(jn_basis(1)) == {(0, 0), (1, 0), (1, 1)}
    for n in range(1, 9):
        assert len(standard_monomials(jn_basis(n))) == (n + 1) * (n + 2) // 2


def test_standard_monomials_not_finite(a3):
    sg, ordering = a3
    basis = buchberger(Ideal((Poly.monomial(sg, (1, 0)) - 1,)), ordering)
    with pytest.raises(QuotientNotFinite):
        standard_monomials(basis)


def test_tower_bases_are_certified(jn_basis):
    """Every A3 tower basis to n = 16 passes the certificate, which calls
    neither buchberger nor the engine's standard-monomial walk, and reads
    back unchanged through ``MarkedBasis.from_json``."""
    for n in range(1, 17):
        basis = jn_basis(n)
        assert certified(basis, n), n
        assert standard_monomials(basis) == standard_set(basis), n
        assert MarkedBasis.from_json(basis.ordering, basis.to_json()) == basis, n


def test_certificate_rejects_wrong_bases(a3, jn_basis):
    """Negative controls: no element of GB(J_(n-1)) lies in J_n, and a basis
    with one coefficient perturbed or one element dropped is not certified.
    Nor is a Groebner basis of J_n that is not reduced: one element doubled,
    the first element added to the last, or a multiple of an element added."""
    sg, _ = a3
    assert not any(in_jn(Poly.monomial(sg, a) - 1, 1) for a in sg.generators)
    for n in range(2, 11):
        assert not any(in_jn(g, n) for g, _ in jn_basis(n - 1).elements), n
    for n in range(1, 11):
        basis = jn_basis(n)
        elems = basis.elements
        k = n % len(elems)
        g, m = elems[k]
        e = min(g.support() - {m})
        perturbed = elems[:k] + ((g + Poly.monomial(sg, e), m),) + elems[k + 1:]
        assert not certified(MarkedBasis(perturbed, basis.ordering), n), n
        assert not certified(MarkedBasis(elems[:k] + elems[k + 1:], basis.ordering), n), n
        by_key = sorted(elems, key=lambda gm: basis.ordering.key(gm[1]))
        (g0, _), (g1, m1) = by_key[0], by_key[-1]
        doubled = elems[:k] + ((2 * g, m),) + elems[k + 1:]
        summed = tuple((g1 + g0 if m2 == m1 else g2, m2) for g2, m2 in elems)
        extra = elems + ((g1.shift((1, 1)), vadd(m1, (1, 1))),)
        for bad in (doubled, summed, extra):
            assert not certified(MarkedBasis(bad, basis.ordering), n), n


def test_colength_stop_fires_before_any_s_pair(a3, jn_basis, monkeypatch):
    """jn_bases gives each ideal of the A3 tower its colength N, and to n = 12
    the stop fires during reduce-on-insert: under max_reductions=0 not one
    S-pair is reduced, and the bases are the jn_basis fixture's.  Pairs are
    pushed only once every generator is inserted, so not one minimal common
    multiple is computed either."""
    expected = [jn_basis(n) for n in range(1, 13)]
    colengths = []
    mcm_calls = []
    mcm = groebner.min_common_multiples

    def no_pairs(ideal, ord):
        colengths.append(ideal.colength)
        return buchberger(ideal, ord, max_reductions=0)

    def recording(*args):
        mcm_calls.append(args)
        return mcm(*args)

    monkeypatch.setattr(nash_module, "buchberger", no_pairs)
    monkeypatch.setattr(groebner, "min_common_multiples", recording)
    sg, ordering = a3
    assert list(itertools.islice(nash_module.jn_bases(sg, ordering), 12)) == expected
    assert colengths == [(n + 1) * (n + 2) // 2 for n in range(1, 13)]
    assert mcm_calls == []


def test_marks_are_only_hints(a3, jn_basis, monkeypatch):
    """buchberger reads an Ideal's marks only to order reduce-on-insert.

    The tower's products at n = 2..4 are handed over again with their marks
    shuffled, so that each mark is a term of some generator but mostly not
    of its own, and with a random term of each generator as its mark; with
    and without the colength, the reduced basis is unchanged.  The same
    on the tower of a cyclic cone under the sweep's first ordering."""
    ideals = []

    def recording(ideal, ord):
        ideals.append((ideal, ord))
        return buchberger(ideal, ord)

    monkeypatch.setattr(nash_module, "buchberger", recording)
    sg, ordering = a3
    expected = [jn_basis(n) for n in range(2, 5)]
    list(itertools.islice(nash_module.jn_bases(sg, ordering), 4))
    c = Cone2((0, 1), (7, -3))
    csg = AffineSemigroup.from_support_cone(c)
    cyclic = list(itertools.islice(nash_module.jn_bases(csg, sweep_start(csg)), 3))
    cases = list(zip(ideals[1:4], expected)) + list(zip(ideals[5:7], cyclic[1:]))
    rng = random.Random(113)
    for (ideal, ord), want in cases:
        gens = ideal.generators
        shuffled = list(ideal.marks)
        rng.shuffle(shuffled)
        assert sum(m != ideal.marks[i] for i, m in enumerate(shuffled)) > len(gens) // 2
        terms = [rng.choice(sorted(g.terms)) for g in gens]
        for marks in (shuffled, terms):
            for colength in (ideal.colength, None):
                got = groebner.buchberger(Ideal(gens, colength, marks), ord)
                assert got == want, (ord, colength)
    with pytest.raises(ValueError):
        Ideal(ideals[0][0].generators, None, ideals[0][0].marks[1:])


def test_quotient_dimension_matches_linear_algebra_oracle(a3, jn_basis):
    sg, _ = a3
    for n, bound in ((1, 10), (2, 16), (3, 18)):
        dim = quotient_dim_oracle(sg, jn_generators(sg, n), bound)
        assert dim == len(standard_monomials(jn_basis(n)))


def test_initial_ideals_never_strictly_contained(a3):
    # different orderings give initial ideals with equal quotient dimension
    sg, _ = a3
    rng = random.Random(71)
    for n in (1, 2):
        ideal = jn_generators(sg, n)
        counts = {
            len(standard_monomials(buchberger(ideal, random_ordering(sg, rng))))
            for _ in range(6)
        }
        assert counts == {(n + 1) * (n + 2) // 2}


def test_first_ordering_row_lies_in_basis_cone(a3):
    sg, _ = a3
    rng = random.Random(73)
    ideal = jn_generators(sg, 1)
    for _ in range(8):
        ordering = random_ordering(sg, rng)
        gc = cone_of_basis(buchberger(ideal, ordering))
        assert contains(gc.cone, ordering.rows[0])


def test_ideal_membership_examples(a3, jn_basis):
    sg, _ = a3
    basis = jn_basis(1)
    g1 = Poly(sg, {(3, 4): 1, (1, 0): 1, (1, 1): -4, (0, 0): 2})
    assert ideal_membership(g1, basis)
    assert not ideal_membership(Poly.monomial(sg, (0, 0)), basis)
    uv_minus_1 = Poly.monomial(sg, (1, 1)) - 1
    for n in (2, 3):
        basis_n = jn_basis(n)
        for g, _ in jn_basis(n - 1).elements:
            assert ideal_membership(uv_minus_1 * g, basis_n)
    # uv - 1 lies in I but not in J_1 = I^2; times an element of J_1 it does
    assert not ideal_membership(uv_minus_1, basis)
    g0, _ = basis.elements[0]
    assert ideal_membership(uv_minus_1 * g0, basis)


def test_basis_json_round_trip(a3, jn_basis):
    _, ordering = a3
    basis = jn_basis(2)
    again = MarkedBasis.from_json(ordering, basis.to_json())
    assert again.elements == basis.elements


def test_tail_inter_reduction_on_cyclic_cone():
    # the fan sweep of J_2 over cone((0,1),(5,-2)) yields elements whose
    # tails still hold other marks after the S-pair loop; the reduced
    # result must be a fixpoint of buchberger under the same ordering
    sg = AffineSemigroup.from_support_cone(Cone2((0, 1), (5, -2)))
    for gc in groebner_fan(buchberger(jn_generators(sg, 2), sweep_start(sg))):
        basis = gc.basis
        again = buchberger(Ideal(tuple(g for g, _ in basis.elements)), basis.ordering)
        assert again.elements == basis.elements


def test_buchberger_cap_raises(a3):
    sg, ordering = a3
    with pytest.raises(PairQueueExhausted):
        buchberger(jn_generators(sg, 2), ordering, max_reductions=5)
