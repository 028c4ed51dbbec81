import copy
import itertools
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest

import nashfan.fan as fan_module
import nashfan.nash as nash_module
from nashfan import groebner
from nashfan.algebra import MatrixOrdering, Poly, leading_monomial
from nashfan.fan import cone_of_basis, groebner_fan, sweep_start
from nashfan.groebner import (
    Ideal,
    MarkedBasis,
    buchberger,
    normal_form,
    standard_monomials,
)
from nashfan.lattice import AffineSemigroup, Cone2, contains, points_below, vadd, vscale, vsub
from nashfan.nash import a3_semigroup, jn_basis_at, jn_generators, nash_fan

from oracles import (
    certified,
    cyclic_cones,
    divides,
    enumerate_below,
    full_interreduce,
    golden_j1_basis,
    in_dual,
    in_jn,
    primitive,
    reduced,
    s_polynomials,
    shift,
    standard_set,
    typed_terms,
)


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
        top = max(e[0] + e[1] for e in g.terms)
        for e in enumerate_below(sg, (1, 1), bound - top):
            shifted = shift(g, e)
            if all(m in index for m in shifted.terms):
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
        term = Poly.monomial(sg, e, r.terms[e])
        divisors = [(g, m) for g, m in pairs if divides(sg, m, e)]
        if divisors:
            g, m = min(divisors, key=lambda gm: ord.key(gm[1]))
            r = r - r.terms[e] * shift(g, vsub(e, m))
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

    ``divides`` reads ``lattice.cone_coords`` and ``_reduce`` inlines its
    formula, so each (p, q) is also checked against the definition of σ^∨,
    which uses neither: p - q pairs nonnegatively with both rays of σ.
    Divisibility is invariant under translation, so the box is moved by a
    multiple of an interior point of the exponent cone until, by that
    definition, it lies in S.
    """
    box = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    for c in KERNEL_CONES:
        sg = AffineSemigroup(c)
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
                zero = groebner._reduce(mono[p], table, ord).is_zero
                assert zero == divides(sg, q, p), (c, p, q)
                assert zero == in_dual(sg, vsub(p, q)), (c, p, q)


def monic_products(sg, ord, n):
    """The product generators of J_n, made monic under ord.

    Not a Groebner basis: marks repeat and divide each other, so the
    smallest-mark tie-break decides the remainder.
    """
    pairs = []
    for g in jn_generators(sg, n).generators:
        m = leading_monomial(ord, g)
        pairs.append((g * Fraction(1, g.terms[m]), m))
    return pairs


def test_reduce_matches_reference_division():
    """_reduce by a non-Groebner divisor list; no basis is built with it."""
    rng = random.Random(89)
    for c in KERNEL_CONES:
        sg = AffineSemigroup(c)
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
        sg = AffineSemigroup(c)
        for ord in kernel_orderings(sg):
            pairs = []
            for g in jn_generators(sg, 2).generators:
                m = leading_monomial(ord, g)
                lc = rng.choice((-3, -2, -1, 2, 3, 4, 6))
                pairs.append((g + (lc - 1) * Poly.monomial(sg, m), m))
            monic = [(g * Fraction(1, g.terms[m]), m) for g, m in pairs]
            table = groebner.divisor_table(pairs, ord)
            for _ in range(12):
                f = random_kernel_poly(sg, rng)
                f = f * math.lcm(*[v.denominator for v in f.terms.values()])
                got = groebner._reduce(f, table, ord)
                want = reference_reduce(f, monic, ord)
                assert all(type(v) is int for v in got.terms.values()), (c, ord)
                assert got.terms.keys() == want.terms.keys(), (c, ord)
                if want.is_zero:
                    continue
                e = next(iter(want.terms))
                assert got == want * (Fraction(got.terms[e]) / want.terms[e]), (c, ord)


def test_reduce_emits_terms_in_decreasing_order():
    """_reduce's result lists its terms in decreasing order, so its first
    term is its leading_monomial: on random f, by monic and by non-monic
    divisors, under the kernel orderings, where its remainders by monic
    divisors also match the reference division."""
    rng = random.Random(107)
    checked = 0
    for c in KERNEL_CONES:
        sg = AffineSemigroup(c)
        for ord in kernel_orderings(sg):
            monic = monic_products(sg, ord, 2)
            non_monic = [
                (g + (rng.choice((2, 3, -2)) - 1) * Poly.monomial(sg, m), m) for g, m in monic
            ]
            for pairs in (monic, non_monic):
                table = groebner.divisor_table(pairs, ord)
                for _ in range(18):
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


def test_reduce_stores_coefficients_as_a_poly_does():
    """_reduce writes its result's dict itself, so it must store what a
    Poly stores: no zero coefficient, and an integral value as an int,
    never as a Fraction.  f = q g + r for a row g and random q, r, so that
    steps cancel terms; by monic rows, whose tails hold Fractions that
    multiply Fraction coefficients of f into integral ones, and by
    non-monic integer rows, under the kernel orderings."""
    rng = random.Random(173)
    integral = fractional = 0
    for c in KERNEL_CONES:
        sg = AffineSemigroup(c)
        for ord in kernel_orderings(sg):
            monic = monic_products(sg, ord, 2)
            non_monic = [
                (g + (rng.choice((2, 3, -2)) - 1) * Poly.monomial(sg, m), m) for g, m in monic
            ]
            for pairs in (monic, non_monic):
                table = groebner.divisor_table(pairs, ord)
                for _ in range(12):
                    g, _ = rng.choice(pairs)
                    f = random_kernel_poly(sg, rng) * g + random_kernel_poly(sg, rng)
                    if pairs is non_monic:
                        f = f * math.lcm(*[v.denominator for v in f.terms.values()])
                    r = groebner._reduce(f, table, ord)
                    for e, v, t in typed_terms(r):
                        assert v != 0, (c, ord, e)
                        assert t is int or v.denominator != 1, (c, ord, e, v)
                        integral += t is int
                        fractional += t is Fraction
    assert integral > 500 and fractional > 500


def test_reduce_holds_only_its_pending_records(monkeypatch):
    """A record taken from the heap leaves the kernel's dict.  On
    cone((0,1),(10001,−10000)) at n = 1 two _reduce calls each take about
    10^4 steps by the row (uv − 1)^2 with at most 3 terms pending; each
    call's tracemalloc peak stays under 256 KB, where one record kept per
    step took about 3 MB."""
    real = groebner._reduce
    peaks = []

    def traced(f, table, ord):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        r = real(f, table, ord)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return r

    monkeypatch.setattr(groebner, "_reduce", traced)
    tracemalloc.start()
    try:
        nash_fan(Cone2((0, 1), (10001, -10000)), 1)
    finally:
        tracemalloc.stop()
    assert peaks and max(peaks) < 256 * 1024, max(peaks)


def test_reduce_appends_the_terms_below_the_smallest_mark():
    """Once _reduce keeps a term at or below its smallest mark, it appends
    the pending terms without popping them, sorted: by an empty table f
    comes back in decreasing order, and by one row whose mark lies above
    most terms of f the remainder matches the reference division and is
    in decreasing order, with at least three terms appended in most
    cases."""
    rng = random.Random(131)
    reduced = appended = 0
    for c in KERNEL_CONES:
        sg = AffineSemigroup(c)
        for ord in kernel_orderings(sg):
            pairs = monic_products(sg, ord, 2)
            for _ in range(12):
                f = sum((random_kernel_poly(sg, rng) for _ in range(4)), Poly.zero(sg))
                if len(f.terms) < 6:
                    continue
                r = groebner._reduce(f, [], ord)
                assert r == f and list(r.terms) == sorted(f.terms, key=ord.key, reverse=True)
                for g, m in pairs:
                    below = [e for e in f.terms if ord.key(e) < ord.key(m)]
                    if 2 * len(below) <= len(f.terms):
                        continue
                    r = groebner._reduce(f, groebner.divisor_table([(g, m)], ord), ord)
                    assert r == reference_reduce(f, [(g, m)], ord), (c, ord, m)
                    assert list(r.terms) == sorted(r.terms, key=ord.key, reverse=True), (c, ord, m)
                    reduced += r != f
                    appended += sum(e in r.terms for e in below) >= 3
    assert reduced > 1000 and appended > 1000


class CountingTail(list):
    """A divisor row's tail that counts the steps which read it."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_reduce_skips_a_cancelled_term_without_dividing_it():
    """A term whose coefficient a step cancels is skipped when taken, at the
    smallest mark and above it: over N^2, x^(3,0) + x^(0,k) by the rows
    x^(3,0) + x^(0,k) and x^(0,1) + 1 takes one step, by the first, and
    never reads the tail of the second, which divides x^(0,k).  Dividing
    the cancelled term would only add zeros, so the remainder alone could
    not tell."""
    sg = AffineSemigroup(Cone2((1, 0), (0, 1)))
    ord = MatrixOrdering(((1, 1), (1, 0)), sg)
    for k in (1, 2):
        f = Poly(sg, {(3, 0): 1, (0, k): 1})
        pairs = [(f, (3, 0)), (Poly(sg, {(0, 1): 1, (0, 0): 1}), (0, 1))]
        table = [(*row[:3], CountingTail(row[3]), row[4]) for row in groebner.divisor_table(pairs, ord)]
        assert groebner._reduce(f, table, ord) == reference_reduce(f, pairs, ord) == Poly.zero(sg)
        assert {row[4]: row[3].reads for row in table} == {(3, 0): 1, (0, 1): 0}, k


def test_reduce_pops_no_record_past_the_first_below_the_smallest_mark(monkeypatch):
    """No mark divides a monomial below the smallest one, so the first
    such term _reduce takes, kept or cancelled, ends its loop, and the
    pending records are appended without a heap pop.  The remainder does
    not show this stop, so the heap does: each call pops at most one record
    below its smallest mark, counted by wrapping groebner's heappush and
    heappop.  The queries are f = q g and f = q g + r, g an element of the
    reduced basis of J_2 under the kernel orderings, divided by that basis
    and by integral multiples of its elements.  The stop saves pops in many
    calls, which push two or more records below the smallest mark; in many
    of those, steps cancel the first one popped there."""
    rng = random.Random(331)
    queries = []
    for c in KERNEL_CONES:
        sg = AffineSemigroup(c)
        for ord in kernel_orderings(sg):
            monic = jn_basis_at(sg, ord, 2).elements
            integral = [
                (g * (rng.randint(1, 3) * math.lcm(*[Fraction(v).denominator for v in g.terms.values()])), m)
                for g, m in monic
            ]
            for pairs in (monic, integral):
                table = groebner.divisor_table(pairs, ord)
                for _ in range(12):
                    q, r = (random_kernel_poly(sg, rng) for _ in range(2))
                    f = q * rng.choice(pairs)[0] + rng.choice((Poly.zero(sg), r))
                    queries.append((ord, table, f * math.lcm(*[Fraction(v).denominator for v in f.terms.values()])))

    push, pop = groebner.heappush, groebner.heappop

    def pushing(heap, rec):
        nonlocal pushed
        pushed += ord.key(rec[2]) < floor
        push(heap, rec)

    def popping(heap):
        nonlocal popped, first_cancelled
        rec = pop(heap)
        if ord.key(rec[2]) < floor:
            if not popped:
                first_cancelled = not rec[3]
            popped += 1
        return rec

    monkeypatch.setattr(groebner, "heappush", pushing)
    monkeypatch.setattr(groebner, "heappop", popping)
    saved = cancelled = 0
    for ord, table, f in queries:
        floor = ord.key(table[0][4])
        pushed = popped = 0
        first_cancelled = False
        groebner._reduce(f, table, ord)
        assert popped <= 1, (ord, table[0][4], pushed, popped)
        saved += pushed >= 2
        cancelled += pushed >= 2 and first_cancelled
    assert saved > 250 and cancelled > 45, (saved, cancelled)


def a3_multiplier_monomial(rng):
    """A monomial a*u + b*u^3v^4 + c*uv of A3 with a, b, c in 0..2, as in the
    multipliers h_i of the benchmark's a3_normal_form queries."""
    a, b, c = (rng.randrange(3) for _ in range(3))
    return (a + 3 * b + c, 4 * b + c)


def test_reduce_and_normal_form_leave_their_inputs_unchanged(a3, jn_basis):
    """The kernel's records are its own: f's terms (the same coefficient
    objects, in the same order) and every divisor row, tail included, are
    as before the call.  On queries shaped like the benchmark's
    a3_normal_form ones, f = h_1 g_1 + h_2 g_2 + h_3 g_3 + r over GB(J_4),
    by normal_form and by _reduce, and on integral f by the same rows with
    their lc replaced by l != 1.  normal_form's cached table is
    divisor_table's row 0, then its other rows stably sorted by tail
    length."""
    sg, ord = a3
    basis = jn_basis(4)
    std = sorted(standard_monomials(basis))
    rng = random.Random(151)

    non_monic = [
        (g + (rng.choice((2, 3, -2)) - 1) * Poly.monomial(sg, m), m) for g, m in basis.elements
    ]
    for q in range(24):
        r = Poly.zero(sg)
        if q % 2:
            r = Poly(sg, {e: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for e in rng.sample(std, 4)})
        f = r
        for g, _ in rng.sample(basis.elements, 3):
            h = {a3_multiplier_monomial(rng): rng.randint(-5, 5), a3_multiplier_monomial(rng): rng.randint(-5, 5)}
            f = f + Poly(sg, h) * g
        for pairs in (basis.elements, non_monic):
            if pairs is non_monic:
                f = f * math.lcm(*[v.denominator for v in f.terms.values()])
            terms = dict(f.terms)
            table = groebner.divisor_table(pairs, ord)
            rows = copy.deepcopy(table)
            got = groebner._reduce(f, table, ord)
            if pairs is basis.elements:
                assert got == r == normal_form(f, basis), q
                fresh = groebner.divisor_table(basis.elements, ord)
                assert groebner._last_table[1] == fresh[:1] + sorted(fresh[1:], key=lambda row: len(row[3])), q
            assert list(f.terms.items()) == list(terms.items()), q
            assert all(f.terms[e] is c for e, c in terms.items()), q
            assert table == rows, q


def test_normal_form_reads_fewer_tail_terms_than_mark_order(a3, jn_basis, monkeypatch):
    """normal_form divides by the row of smallest mark first and then by
    the others in increasing tail length, for fewer tail updates than in
    divisor_table's mark order.  By a reduced basis the remainder does not
    show this, so CountingTail on every row does: on queries shaped like
    the benchmark's a3_normal_form ones, f = h_1 g_1 + h_2 g_2 + h_3 g_3 + r
    over GB(J_5), each remainder equals the reference division and the
    mark-order division's, and the steps read fewer tail terms."""
    sg, ord = a3
    basis = jn_basis(5)
    std = sorted(standard_monomials(basis))
    rng = random.Random(173)

    def coeff():
        return rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))

    def counted(table):
        return [(*row[:3], CountingTail(row[3]), row[4]) for row in table]

    def tail_terms_read(table):
        return sum(row[3].reads * len(row[3]) for row in table)

    queries = []
    for q in range(40):
        f = Poly(sg, {e: coeff() for e in rng.sample(std, 4)}) if q % 2 else Poly.zero(sg)
        for g, _ in rng.sample(basis.elements, 3):
            h = {a3_multiplier_monomial(rng): coeff(), a3_multiplier_monomial(rng): coeff()}
            f = f + Poly(sg, h) * g
        queries.append(f)
    normal_form(queries[0], basis)
    cached = counted(groebner._last_table[1])
    by_mark = counted(groebner.divisor_table(basis.elements, ord))
    monkeypatch.setattr(groebner, "_last_table", (basis, cached))
    for f in queries:
        r = normal_form(f, basis)
        assert r == groebner._reduce(f, by_mark, ord) == reference_reduce(f, basis.elements, ord)
    assert groebner._last_table[1] is cached
    assert tail_terms_read(cached) < tail_terms_read(by_mark), (tail_terms_read(cached), tail_terms_read(by_mark))


def test_buchberger_table_matches_a_fresh_table(a3, monkeypatch):
    """The divisor table buchberger keeps by bisect insertion equals, at
    every _reduce call before the final pass, divisor_table of the working
    elements so far: the primitive remainders of the earlier calls, marked
    at their leading monomials.  Every stored row has lc > 0: a row with
    lc = -1 would rescale the whole remainder at each step through it.
    With no colength, the S-pairs run too."""
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
    csg = AffineSemigroup(Cone2((0, 1), (7, -3)))
    for ideal, ord in ((jn_generators(sg, 3), ordering), (jn_generators(csg, 2), sweep_start(csg))):
        calls.clear()
        final.clear()
        buchberger(ideal, ord)
        working = []
        for table, r in calls:
            assert table == groebner.divisor_table(working, ord)
            assert all(lc > 0 for _, _, lc, _, _ in table)
            if not r.is_zero:
                g = groebner._primitive(r)
                working.append((g, leading_monomial(ord, g)))
        assert len(calls) > len(ideal.generators) and len(working) > 4


def test_primitive_matches_the_fraction_reference(a3):
    """_primitive equals oracles.primitive, term for term in f's order and
    with int coefficients, on int, Fraction and mixed coefficients, with
    content above 1 and a negative first term; an already primitive int
    polynomial comes back as the same object."""
    sg, _ = a3
    rng = random.Random(149)
    types_seen, negative, content = set(), 0, 0
    for _ in range(300):
        f = random_kernel_poly(sg, rng)
        if f.is_zero:
            continue
        f = f * rng.choice((1, 1, 6, -4, Fraction(3, 2), Fraction(-5, 7)))
        g = groebner._primitive(f)
        assert typed_terms(g) == typed_terms(primitive(f)) and list(g.terms) == list(f.terms)
        assert all(type(c) is int for c in g.terms.values())
        if g == f:
            assert g is f
        coeffs = list(f.terms.values())
        types = frozenset(map(type, coeffs))
        types_seen.add(types)
        negative += coeffs[0] < 0
        content += types == {int} and math.gcd(*coeffs) > 1
    assert {frozenset({int}), frozenset({Fraction}), frozenset({int, Fraction})} <= types_seen
    assert negative and content
    f = Poly(sg, {(3, 4): 2, (1, 0): -3, (0, 0): 1})
    assert groebner._primitive(f) is f
    assert groebner._primitive(-f) == f


def test_final_pass_divides_exactly_the_elements_it_changes(a3, monkeypatch):
    """interreduce, which divides a kept element only when a kept mark
    divides one of its terms, equals full_interreduce, which divides every
    kept element, coefficient types included: on every buchberger run and
    every flip of the A3 tower to n = 10 and of the sweeps of the cyclic
    cones with d <= 9 and n <= 3, their towers included.  Every division
    that interreduce makes changes its input; the A3 tower makes none, the
    sweeps some.  Term order is left out: an element kept undivided keeps
    its input's order, and a flip's lift need not come in decreasing
    order."""
    interreduce, reduce = groebner.interreduce, groebner._reduce
    runs, divisions = 0, []

    def checked(pairs, ord):
        nonlocal runs
        got = interreduce(pairs, ord)
        want = full_interreduce(pairs, ord)
        assert sorted_typed_elements(got) == sorted_typed_elements(want)
        runs += 1
        return got

    def dividing(f, table, ord):
        r = reduce(f, table, ord)
        if sys._getframe(1).f_code is interreduce.__code__:
            divisions.append(r != f)
        return r

    monkeypatch.setattr(groebner, "_reduce", dividing)
    monkeypatch.setattr(groebner, "interreduce", checked)
    monkeypatch.setattr(fan_module, "interreduce", checked)
    sg, ordering = a3
    list(itertools.islice(nash_module.jn_bases(sg, ordering), 10))
    assert runs == 10 and divisions == []
    for c in cyclic_cones(9):
        csg = AffineSemigroup(c)
        for n in (1, 2, 3):
            groebner_fan(jn_basis_at(csg, sweep_start(csg), n))
    assert len(divisions) > 0 and all(divisions)


def sorted_typed_elements(basis):
    """A basis's marks and terms, the terms sorted, each coefficient with its type."""
    return [(m, sorted(typed_terms(g))) for g, m in basis.elements]


def test_interreduce_needs_no_promise_from_its_caller(a3):
    """A reduced basis with one element g_i polluted by c x^s g_j, where
    mark(g_j) + s lies below mark(g_i), so that the mark stays leading and
    mark(g_j) divides a tail term: interreduce returns the basis itself,
    and from_json rejects the polluted one.  On each tower basis for
    n <= 6 and each basis of the sweep of cone((0,1),(7,-3)) at n = 2,
    every element but the first is polluted in turn."""
    rng = random.Random(18)
    sg, ordering = a3
    bases = list(itertools.islice(nash_module.jn_bases(sg, ordering), 6))
    csg = AffineSemigroup(Cone2((0, 1), (7, -3)))
    bases += [gc.basis for gc in groebner_fan(jn_basis_at(csg, sweep_start(csg), 2))]
    polluted = 0
    for basis in bases:
        ord = basis.ordering
        shifts = [(0, 0), *basis.sg.generators]
        elems = sorted(basis.elements, key=lambda gm: ord.key(gm[1]))
        for i, (g, m) in enumerate(elems):
            below = [(j, s) for j in range(i) for s in shifts
                     if ord.key(vadd(elems[j][1], s)) < ord.key(m)]
            if not below:
                continue
            j, s = rng.choice(below)
            c = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))
            pairs = list(elems)
            pairs[i] = (g + shift(elems[j][0], s) * c, m)
            assert groebner.interreduce(pairs, ord) == basis, (m, elems[j][1], s)
            with pytest.raises(ValueError, match="a mark divides a term"):
                MarkedBasis.from_json(ord, MarkedBasis(tuple(pairs), ord).to_json())
            polluted += 1
    assert len(bases) > 6 and polluted > 50


def test_interreduce_tests_the_terms_from_the_smallest_kept_mark(a3):
    """interreduce tests a term against the kept marks only from the
    smallest kept mark m0 up.  A reduced basis with one element g_i, i >= 1,
    given one more term c x^e below its mark, where e is the only term of
    the element that a kept mark divides: e = m0, or e one step above m0,
    the smallest multiple above m0 of the marks kept before g_i.  On each
    tower basis for n <= 6 and each basis of the sweep of
    cone((0,1),(7,-3)) at n = 2, interreduce equals full_interreduce, so
    it neither skips a term at m0 nor takes its floor from a larger mark."""
    rng = random.Random(31)
    sg, ordering = a3
    bases = list(itertools.islice(nash_module.jn_bases(sg, ordering), 6))
    csg = AffineSemigroup(Cone2((0, 1), (7, -3)))
    bases += [gc.basis for gc in groebner_fan(jn_basis_at(csg, sweep_start(csg), 2))]
    at_floor = above = 0
    for basis in bases:
        ord = basis.ordering
        elems = sorted(basis.elements, key=lambda gm: ord.key(gm[1]))
        m0 = elems[0][1]
        # every multiple of m0 above it is m0 plus a sum of generators, and
        # m1 lies below every multiple of a larger mark
        step = min((vadd(m0, s) for s in basis.sg.generators), key=ord.key)
        for i in range(1, len(elems)):
            g, m = elems[i]
            up = step if i == 1 else min(step, elems[1][1], key=ord.key)
            for e in (m0, up):
                if ord.key(e) >= ord.key(m):
                    continue
                c = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))
                pairs = list(elems)
                pairs[i] = (g + Poly.monomial(basis.sg, e, c), m)
                got = groebner.interreduce(pairs, ord)
                assert sorted_typed_elements(got) == sorted_typed_elements(full_interreduce(pairs, ord)), (m, e)
                assert all(e not in h.terms for h, mk in got.elements if mk == m)
                if e == m0:
                    at_floor += 1
                elif ord.key(e) < ord.key(elems[i - 1][1]):
                    above += 1
    assert len(bases) > 6 and at_floor > 50 and above > 30, (at_floor, above)


def test_normal_form_matches_reference_division():
    rng = random.Random(97)
    for c in KERNEL_CONES:
        sg = AffineSemigroup(c)
        for ord in kernel_orderings(sg):
            basis = jn_basis_at(sg, ord, 2)
            for _ in range(12):
                f = random_kernel_poly(sg, rng)
                assert normal_form(f, basis) == reference_reduce(f, basis.elements, ord), (c, ord)


def test_normal_form_builds_one_table_per_basis(a3, jn_basis, monkeypatch):
    """normal_form builds a basis's divisor table once for repeated calls
    on it, and once again at each switch to another basis: the
    divisor_table calls, counted through groebner's module name, follow
    the switches exactly."""
    sg, _ = a3
    built = []
    table = groebner.divisor_table

    def counting(pairs, ord):
        built.append(pairs)
        return table(pairs, ord)

    monkeypatch.setattr(groebner, "divisor_table", counting)
    monkeypatch.setattr(groebner, "_last_table", (None, None))
    b2, b3 = jn_basis(2), jn_basis(3)
    f = Poly.monomial(sg, (4, 4)) - Poly.monomial(sg, (1, 0))
    for _ in range(5):
        normal_form(f, b2)
    assert built == [b2.elements]
    for basis in (b3, b2, b3, b3, b2):
        normal_form(f, basis)
    assert built == [b2.elements, b3.elements, b2.elements, b3.elements, b2.elements]


def test_ideal_rejects_bad_generators(a3):
    sg, _ = a3
    with pytest.raises(ValueError, match="ideal needs at least one generator"):
        Ideal(())
    with pytest.raises(ValueError, match="ideal generators must be nonzero"):
        Ideal((Poly.zero(sg),))
    other = AffineSemigroup(Cone2((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="different semigroups"):
        Ideal((Poly.monomial(sg, (1, 0)), Poly.monomial(other, (1, 0))))


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
    u_minus_1_sq = (Poly.monomial(sg, (1, 0)) - 1) * (Poly.monomial(sg, (1, 0)) - 1)
    assert normal_form(u_minus_1_sq, basis).is_zero
    one = Poly.monomial(sg, (0, 0))
    assert normal_form(one, basis) == one
    g0, _ = basis.elements[0]
    assert normal_form(shift(g0, (4, 4)), basis).is_zero


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
        assert r.terms.keys() <= std
        assert normal_form(f - r, basis).is_zero


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
    assert jn_basis(1).elements == golden_j1_basis(ordering).elements
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
            assert all(g.terms[m] == 1 for g, m in pairs), f
            outside.append(f)
        for g, m in pairs:
            assert g.terms[m] == 1 or all(type(c) is int for c in g.terms.values()), g
            if g.terms[m] != 1:
                non_monic.append(m)
        return inner(f, table, ord)

    track(nash_module)
    track(fan_module)
    monkeypatch.setattr(groebner, "_reduce", checking)
    sg, ordering = a3
    jn_basis_at(sg, ordering, 8)
    assert not outside
    for c in (Cone2((0, 1), (7, -3)), Cone2((0, 1), (11, -4))):
        sg = AffineSemigroup(c)
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
        sg = AffineSemigroup(c)
        for gc in groebner_fan(jn_basis_at(sg, sweep_start(sg), 2)):
            assert_s_polynomials_reduce_to_zero(gc.basis)


def random_binomial_ideal(sg, rng):
    """Three binomials c x^a - d x^b, a != b small semigroup members, with
    random coefficients, so that their leading coefficients differ."""
    k = 2 if len(sg.generators) <= 3 else 1

    def member():
        e = (0, 0)
        for g in sg.generators:
            e = vadd(e, vscale(rng.randint(0, k), g))
        return e

    gens = []
    while len(gens) < 3:
        a, b = member(), member()
        if a != b:
            gens.append(Poly(sg, {a: rng.randint(1, 5), b: rng.choice((-5, -4, -3, -2, -1, 1, 2, 3))}))
    return Ideal(tuple(gens))


def test_raw_s_step_gives_the_reduced_basis(monkeypatch):
    """buchberger reduces x^(m - mi) gi - x^(m - mj) gj without matching
    the leading coefficients li, lj.  With no colength to stop it, on
    random binomial ideals over several semigroups and orderings, each
    result passes Buchberger's criterion by the reference division, is
    reduced, and reduces every generator to zero.  The hard case occurs
    often: li != lj, so the term at m survives with coefficient li - lj,
    and the row of smallest mark dividing m, which takes the first step
    at m, is neither i nor j."""
    shift_sub, reduce = Poly.shift_sub, groebner._reduce
    pending = []
    third = 0

    def recording_shift_sub(g, a, h, b):
        f = shift_sub(g, a, h, b)
        pending.append((g, a, h, f))
        return f

    def checking(f, table, ord):
        nonlocal third
        # only buchberger's S-step calls shift_sub here, right before it
        # reduces the result
        if pending:
            gi, a, gj, s = pending.pop()
            assert s is f
            mi, mj = next(iter(gi.terms)), next(iter(gj.terms))
            m = vadd(mi, a)
            if gi.terms[mi] != gj.terms[mj]:
                assert f.terms[m] == gi.terms[mi] - gj.terms[mj]
                first = min((row[4] for row in table if divides(ord.sg, row[4], m)), key=ord.key)
                third += first not in (mi, mj)
        return reduce(f, table, ord)

    monkeypatch.setattr(Poly, "shift_sub", recording_shift_sub)
    monkeypatch.setattr(groebner, "_reduce", checking)
    rng = random.Random(307)
    runs = []
    for c in cyclic_cones(5) + [a3_semigroup().support_cone, Cone2((1, 0), (1, 2)), Cone2((2, 1), (-1, 3))]:
        sg = AffineSemigroup(c)
        for ord in kernel_orderings(sg):
            for _ in range(3):
                ideal = random_binomial_ideal(sg, rng)
                runs.append((ideal, buchberger(ideal, ord)))
    monkeypatch.undo()
    assert third >= 100, third
    for ideal, basis in runs:
        assert_s_polynomials_reduce_to_zero(basis)
        assert reduced(basis)
        assert all(reference_reduce(g, basis.elements, basis.ordering).is_zero for g in ideal.generators)


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
    monkeypatch.setattr(groebner, "MAX_REDUCTIONS", pairs)
    assert buchberger(ideal, ordering).elements == expected.elements
    monkeypatch.setattr(groebner, "MAX_REDUCTIONS", pairs - 1)
    with pytest.raises(RuntimeError, match=f"more than {pairs - 1} S-pair reductions"):
        buchberger(ideal, ordering)


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
    with pytest.raises(ValueError, match="no mark lies on one of the rays of the exponent cone"):
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
        e = min(g.terms.keys() - {m})
        perturbed = elems[:k] + ((g + Poly.monomial(sg, e), m),) + elems[k + 1:]
        assert not certified(MarkedBasis(perturbed, basis.ordering), n), n
        assert not certified(MarkedBasis(elems[:k] + elems[k + 1:], basis.ordering), n), n
        by_key = sorted(elems, key=lambda gm: basis.ordering.key(gm[1]))
        (g0, _), (g1, m1) = by_key[0], by_key[-1]
        doubled = elems[:k] + ((2 * g, m),) + elems[k + 1:]
        summed = tuple((g1 + g0 if m2 == m1 else g2, m2) for g2, m2 in elems)
        extra = elems + ((shift(g1, (1, 1)), vadd(m1, (1, 1))),)
        for bad in (doubled, summed, extra):
            assert not certified(MarkedBasis(bad, basis.ordering), n), n


def test_colength_stop_fires_before_any_s_pair(a3, jn_basis, monkeypatch):
    """jn_bases gives each ideal of the A3 tower its colength N, and to n = 12
    the stop fires during reduce-on-insert: under MAX_REDUCTIONS = 0 not one
    S-pair is reduced, and the bases are the jn_basis fixture's.  Pairs are
    pushed only once every generator is inserted, so not one minimal common
    multiple is computed either."""
    expected = [jn_basis(n) for n in range(1, 13)]
    colengths = []
    mcm_calls = []
    mcm = groebner.min_common_multiples

    def recording_colength(ideal, ord):
        colengths.append(ideal.colength)
        return buchberger(ideal, ord)

    def recording(*args):
        mcm_calls.append(args)
        return mcm(*args)

    monkeypatch.setattr(nash_module, "buchberger", recording_colength)
    monkeypatch.setattr(groebner, "MAX_REDUCTIONS", 0)
    monkeypatch.setattr(groebner, "min_common_multiples", recording)
    sg, ordering = a3
    assert list(itertools.islice(nash_module.jn_bases(sg, ordering), 12)) == expected
    assert colengths == [(n + 1) * (n + 2) // 2 for n in range(1, 13)]
    assert mcm_calls == []


def test_colength_stop_fires_at_the_first_exact_count(a3, monkeypatch):
    """In every buchberger run with a colength, of the A3 tower to n = 12
    and of the sweeps of the cyclic cones with d <= 9 and n <= 3, the last
    insert is the first after which points_below of the working marks has
    exactly colength points.  The marks are rebuilt from the recorded
    _reduce results, as in test_buchberger_table_matches_a_fresh_table.
    Some runs stop after an S-pair, past their generators."""
    reduce, interreduce = groebner._reduce, groebner.interreduce
    runs, calls = [], None

    def recording(f, table, ord):
        r = reduce(f, table, ord)
        if calls is not None:
            calls.append(r)
        return r

    def ending(pairs, ord):
        nonlocal calls
        calls = None
        return interreduce(pairs, ord)

    def recording_run(ideal, ord):
        nonlocal calls
        calls = []
        runs.append((ideal, ord, calls))
        return buchberger(ideal, ord)

    monkeypatch.setattr(groebner, "_reduce", recording)
    monkeypatch.setattr(groebner, "interreduce", ending)
    monkeypatch.setattr(nash_module, "buchberger", recording_run)
    monkeypatch.setattr(fan_module, "buchberger", recording_run)
    sg, ordering = a3
    list(itertools.islice(nash_module.jn_bases(sg, ordering), 12))
    for c in cyclic_cones(9):
        csg = AffineSemigroup(c)
        for n in (1, 2, 3):
            groebner_fan(jn_basis_at(csg, sweep_start(csg), n))
    past_inserts = 0
    for ideal, ord, rs in runs:
        colength = ideal.colength
        assert colength is not None and not rs[-1].is_zero
        marks, counts = [], []
        for r in rs:
            if not r.is_zero:
                marks.append(leading_monomial(ord, r))
                std = points_below(ord.sg.dual_cone, marks)
                counts.append(None if std is None else len(std))
        assert counts.index(colength) == len(counts) - 1, (ord, colength, counts)
        past_inserts += len(rs) > len(ideal.generators)
    assert len(runs) == 382 and past_inserts > 0


def test_buchberger_walks_the_staircase_once_per_finite_run(a3, monkeypatch):
    """buchberger calls lattice.coords_below, counted through groebner's
    module name, never in a run without a colength, and exactly once in a
    run with one: at its first finite standard set, after which each
    insert drops the points its mark divides.  The runs with a colength
    are the steps of the A3 tower to n = 6 and of the sweeps of the cyclic
    cones with d <= 7 at n = 2: a tower step reaches its first finite set
    only at its stop, but some flips insert more elements after it, so a
    walk repeated per insert shows there.  The runs without are full runs
    on J_2's product generators."""
    calls, runs = [], []
    walk = groebner.coords_below

    def counting(*args):
        calls.append(args)
        return walk(*args)

    def recording_run(ideal, ord):
        calls.clear()
        basis = buchberger(ideal, ord)
        runs.append((ideal.colength, len(calls)))
        return basis

    monkeypatch.setattr(groebner, "coords_below", counting)
    monkeypatch.setattr(nash_module, "buchberger", recording_run)
    monkeypatch.setattr(fan_module, "buchberger", recording_run)
    sg, ordering = a3
    list(itertools.islice(nash_module.jn_bases(sg, ordering), 6))
    for c in cyclic_cones(7):
        csg = AffineSemigroup(c)
        groebner_fan(jn_basis_at(csg, sweep_start(csg), 2))
    assert len(runs) > 20 and all(colength and walks == 1 for colength, walks in runs), runs
    for s, ord in ((sg, ordering), (csg, sweep_start(csg))):
        calls.clear()
        buchberger(jn_generators(s, 2), ord)
        assert calls == [], s


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
    csg = AffineSemigroup(c)
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
    with pytest.raises(ValueError, match="marks for .* generators"):
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
    assert normal_form(g1, basis).is_zero
    assert not normal_form(Poly.monomial(sg, (0, 0)), basis).is_zero
    uv_minus_1 = Poly.monomial(sg, (1, 1)) - 1
    for n in (2, 3):
        basis_n = jn_basis(n)
        for g, _ in jn_basis(n - 1).elements:
            assert normal_form(uv_minus_1 * g, basis_n).is_zero
    # uv - 1 lies in I but not in J_1 = I^2; times an element of J_1 it does
    assert not normal_form(uv_minus_1, basis).is_zero
    g0, _ = basis.elements[0]
    assert normal_form(uv_minus_1 * g0, basis).is_zero


def test_basis_json_round_trip(a3, jn_basis):
    _, ordering = a3
    basis = jn_basis(2)
    again = MarkedBasis.from_json(ordering, basis.to_json())
    assert again.elements == basis.elements


def test_tail_inter_reduction_on_cyclic_cone():
    # the fan sweep of J_2 over cone((0,1),(5,-2)) yields elements whose
    # tails still hold other marks after the S-pair loop; the reduced
    # result must be a fixpoint of buchberger under the same ordering
    sg = AffineSemigroup(Cone2((0, 1), (5, -2)))
    for gc in groebner_fan(buchberger(jn_generators(sg, 2), sweep_start(sg))):
        basis = gc.basis
        again = buchberger(Ideal(tuple(g for g, _ in basis.elements)), basis.ordering)
        assert again.elements == basis.elements


def test_buchberger_cap_raises(a3, monkeypatch):
    sg, ordering = a3
    monkeypatch.setattr(groebner, "MAX_REDUCTIONS", 5)
    with pytest.raises(RuntimeError, match="more than 5 S-pair reductions"):
        buchberger(jn_generators(sg, 2), ordering)
