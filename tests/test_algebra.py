import itertools
import math
import random
from fractions import Fraction

import pytest

from nashfan.algebra import (
    MatrixOrdering,
    Poly,
    initial_form,
    leading_monomial,
)
from nashfan.fan import groebner_fan, sweep_start
from nashfan.lattice import AffineSemigroup, Cone2, vscale, vsub
from nashfan.nash import jn_basis_at

from oracles import divides, random_member, shift, typed_terms, vdot


def random_poly(sg, rng, nterms=4):
    return Poly(sg, {
        random_member(sg, rng, span=4): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for _ in range(nterms)
    })


def g1_poly(sg):
    return Poly(sg, {(3, 4): 1, (1, 0): 1, (1, 1): -4, (0, 0): 2})


def test_poly_rejects_non_members(a3):
    sg, _ = a3
    with pytest.raises(ValueError, match=r"exponent \(2, 3\) is not a semigroup member"):
        Poly(sg, {(2, 3): 1})


def test_poly_drops_zero_coefficients(a3):
    sg, _ = a3
    p = Poly(sg, {(1, 0): 0, (1, 1): 2})
    assert set(p.terms) == {(1, 1)}
    assert (p - p).is_zero


def test_integral_coefficients_are_stored_as_int(a3):
    sg, _ = a3
    p = Poly(sg, {(1, 1): Fraction(4, 2), (1, 0): True, (0, 0): Fraction(1, 2)})
    assert p.terms == {(1, 1): 2, (1, 0): 1, (0, 0): Fraction(1, 2)}
    assert [type(p.terms[e]) for e in ((1, 1), (1, 0), (0, 0))] == [int, int, Fraction]
    assert repr(p) == "Poly({(0, 0): Fraction(1, 2), (1, 0): 1, (1, 1): 2})"
    # negation keeps each term's place and type, and drops none
    assert typed_terms(-p) == [(e, -c, t) for e, c, t in typed_terms(p)]
    half = Poly.monomial(sg, (1, 0), Fraction(1, 2))
    for q in (half * 2, half + half, half * 3 - half):
        assert q.terms == {(1, 0): 1} and type(q.terms[(1, 0)]) is int
    assert p.to_json()["terms"] == [
        {"exp": [0, 0], "num": 1, "den": 2},
        {"exp": [1, 0], "num": 1, "den": 1},
        {"exp": [1, 1], "num": 2, "den": 1},
    ]


def test_poly_refuses_float_coefficients(a3):
    """A float is refused with a TypeError naming it, through the
    constructor, through Poly.monomial and as either operand of +, - and
    *: Fraction(0.1) would store 3602879701896397/36028797018963968, not
    1/10."""
    sg, _ = a3
    with pytest.raises(TypeError, match=r"0\.1"):
        Poly.monomial(sg, (1, 0), 0.1)
    with pytest.raises(TypeError, match=r"2\.0"):
        Poly(sg, {(1, 1): 3, (1, 0): 2.0})
    p = Poly.monomial(sg, (1, 1), 3)
    for op in (lambda: p * 0.5, lambda: 0.5 * p, lambda: p + 0.5, lambda: p - 0.5, lambda: 0.5 - p):
        with pytest.raises(TypeError, match=r"(?<!-)0\.5 is a float"):
            op()


def test_product_example(a3):
    sg, _ = a3
    uv_minus_1 = Poly.monomial(sg, (1, 1)) - 1
    u_minus_1 = Poly.monomial(sg, (1, 0)) - 1
    assert uv_minus_1 * u_minus_1 == Poly(
        sg, {(2, 1): 1, (1, 0): -1, (1, 1): -1, (0, 0): 1}
    )


def test_times_zero_is_zero(a3):
    sg, _ = a3
    f = g1_poly(sg)
    assert (f * Poly.zero(sg)).is_zero
    assert (f * 0).is_zero


def test_g1_factorization_identity(a3):
    sg, _ = a3
    uv = Poly.monomial(sg, (1, 1))
    u = Poly.monomial(sg, (1, 0))
    big = Poly.monomial(sg, (3, 4))
    lhs = (uv * uv + 2 * uv + 3) * (uv - 1) * (uv - 1) - (u - 1) * (big - 1)
    assert lhs == g1_poly(sg)


def test_ring_axioms_on_random_polys(a3):
    sg, _ = a3
    rng = random.Random(41)
    for _ in range(60):
        f, g, h = (random_poly(sg, rng) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_context_mismatch(a3):
    sg, _ = a3
    other = AffineSemigroup(Cone2((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="polynomials over different semigroups"):
        Poly.monomial(sg, (1, 1)) + Poly.monomial(other, (1, 1))
    with pytest.raises(ValueError, match="polynomials over different semigroups"):
        Poly.monomial(sg, (1, 1)) * Poly.monomial(other, (1, 1))
    with pytest.raises(ValueError, match="polynomials over different semigroups"):
        Poly.monomial(sg, (1, 1)).shift_sub((0, 0), Poly.monomial(other, (1, 1)), (0, 0))
    assert (Poly.monomial(sg, (1, 1)) == "x") is False


def test_shift_sub_matches_shift_and_subtraction(a3):
    """x^a f - x^b g in one pass against shift(f, a) - shift(g, b): the same
    terms in the same order, each coefficient of the same type.  On random
    polys, on full cancellation, and on the ½ coefficients of the bases of
    a cyclic sweep, whose differences cancel to integers."""
    sg, _ = a3
    rng = random.Random(67)
    for _ in range(60):
        f, g = random_poly(sg, rng), random_poly(sg, rng)
        a, b = random_member(sg, rng, span=4), random_member(sg, rng, span=4)
        for x, h, y in ((a, g, b), (a, f, (0, 0)), ((0, 0), f + g, b)):
            assert typed_terms(f.shift_sub(x, h, y)) == typed_terms(shift(f, x) - shift(h, y))
        assert f.shift_sub(a, f, a).is_zero
    csg = AffineSemigroup(Cone2((0, 1), (7, -3)))
    halves = [
        g
        for gc in groebner_fan(jn_basis_at(csg, sweep_start(csg), 2))
        for g, _ in gc.basis.elements
        if any(type(c) is Fraction for c in g.terms.values())
    ]
    integral = 0
    for f in halves:
        for g in halves:
            for a, b in [((0, 0), (0, 0)), *itertools.product(csg.generators, repeat=2)]:
                got = f.shift_sub(a, g, b)
                assert typed_terms(got) == typed_terms(shift(f, a) - shift(g, b))
                integral += sum(
                    type(c) is int and type(f.terms.get(vsub(e, a))) is Fraction
                    for e, c in got.terms.items()
                )
    assert len(halves) == 3 and integral > 0


def test_poly_json_round_trip(a3):
    sg, _ = a3
    f = g1_poly(sg) * Fraction(1, 3)
    assert Poly.from_json(sg, f.to_json()) == f
    exps = [t["exp"] for t in f.to_json()["terms"]]
    assert exps == sorted(exps)


def test_compare_examples(a3):
    _, ordering = a3
    assert ordering.key((3, 4)) > ordering.key((1, 0))
    assert ordering.key((1, 1)) == ordering.key((1, 1))
    assert ordering.key((1, 1)) < ordering.key((1, 0))


def test_ordering_rejects_bad_rows(a3):
    sg, _ = a3
    for rows in ((), ((2, -1),), ((0, 0), (0, 0)), ((2, -1), (-4, 2), (0, 0))):
        with pytest.raises(ValueError, match="do not span"):
            MatrixOrdering(rows, sg)
    for rows in (((-1, 0), (0, 1)), ((0, 1), (-1, 0))):  # (1,0) below the unit
        with pytest.raises(ValueError, match="below the unit"):
            MatrixOrdering(rows, sg)


def test_ordering_keeps_the_two_rows_that_decide(a3):
    """An ordering stores its first nonzero row p and the first row q
    independent of p.  Zero rows, and rows ±k·p before q, leave the stored
    rows as they are, and the ordering equal to the two-row one; refined by
    a weight in front, it keeps two rows too.  On random members, key
    orders every pair as the lexicographic comparison over all the given
    rows does."""
    sg, ordering = a3
    rng = random.Random(47)
    members = [random_member(sg, rng, span=4) for _ in range(40)]
    for base in (ordering, sweep_start(sg), MatrixOrdering(((0, 1), (1, 0)), sg)):
        p, q = base.rows
        padded = [
            ((0, 0), p, q), (p, (0, 0), q), (p, vscale(2, p), q), (p, vscale(-1, p), q),
            ((0, 0), p, (0, 0), vscale(-3, p), q, (5, 7)), (p, q, p),
        ]
        for rows in padded:
            assert MatrixOrdering(rows, sg).rows == base.rows, rows
            assert MatrixOrdering(rows, sg) == base, rows
        refined = [(w, p, q) for w in ((2, -1), (1, 0), (4, -3), (0, 1))]
        for rows in padded + refined:
            ord = MatrixOrdering(rows, sg)
            assert len(ord.rows) == 2
            for a in members:
                for b in members:
                    lex_a = tuple(vdot(r, a) for r in rows)
                    lex_b = tuple(vdot(r, b) for r in rows)
                    assert (ord.key(a) < ord.key(b)) == (lex_a < lex_b), (rows, a, b)
                    assert (ord.key(a) == ord.key(b)) == (lex_a == lex_b), (rows, a, b)


def test_ordering_axioms_on_random_triples(a3):
    sg, ordering = a3
    rng = random.Random(43)
    for _ in range(1000):
        a, b, c = (random_member(sg, rng, span=4) for _ in range(3))
        ka, kb = ordering.key(a), ordering.key(b)
        if divides(sg, b, a):
            assert ka >= kb
        ac, bc = (a[0] + c[0], a[1] + c[1]), (b[0] + c[0], b[1] + c[1])
        assert (ordering.key(ac) > ordering.key(bc)) == (ka > kb)
        assert (ordering.key(ac) == ordering.key(bc)) == (ka == kb)


def test_leading_monomial_examples(a3):
    sg, ordering = a3
    assert leading_monomial(ordering, g1_poly(sg)) == (3, 4)
    assert leading_monomial(ordering, Poly.monomial(sg, (2, 0))) == (2, 0)
    sq = (Poly.monomial(sg, (1, 1)) - 1) * (Poly.monomial(sg, (1, 1)) - 1)
    assert sq == Poly(sg, {(2, 2): 1, (1, 1): -2, (0, 0): 1})
    assert leading_monomial(ordering, sq) == (2, 2)


def test_leading_monomial_errors(a3):
    sg, ordering = a3
    with pytest.raises(ValueError, match="zero polynomial has no leading monomial"):
        leading_monomial(ordering, Poly.zero(sg))
    other = AffineSemigroup(Cone2((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="polynomial and ordering over different semigroups"):
        leading_monomial(ordering, Poly.monomial(other, (1, 1)))


def test_initial_form_examples(a3):
    sg, _ = a3
    f = g1_poly(sg)
    assert initial_form((2, -1), f) == Poly(sg, {(3, 4): 1, (1, 0): 1})
    assert initial_form((2, -1), Poly.zero(sg)).is_zero
    for n in range(2, 7):
        power = math.prod([Poly.monomial(sg, (1, 1)) - 1] * (n - 1))
        assert initial_form((2, -1), power) == Poly.monomial(sg, (n - 1, n - 1))
    with pytest.raises(ValueError, match=r"\(-1, 0\) is outside the support cone"):
        initial_form((-1, 0), f)


def test_initial_form_is_multiplicative(a3):
    sg, _ = a3
    rng = random.Random(53)
    weights = [(2, -1), (1, 0), (2, 0), (4, -3), (0, 1), (3, -2)]
    for _ in range(200):
        f, g = random_poly(sg, rng), random_poly(sg, rng)
        w = rng.choice(weights)
        assert initial_form(w, f * g) == initial_form(w, f) * initial_form(w, g)


def test_initial_form_keeps_the_terms_of_f(a3):
    """in_w(f) is f's terms of maximal w-weight, in f's order, with f's own
    coefficient objects: a Poly stores an integral value as an int, so
    these need no demotion and no copy.  Some of the forms hold
    non-integral Fractions."""
    sg, _ = a3
    rng = random.Random(61)
    weights = [(2, -1), (1, 0), (2, 0), (4, -3), (0, 1), (3, -2)]
    fractions = 0
    for _ in range(200):
        f = random_poly(sg, rng) * rng.choice((1, 2, 6))
        if f.is_zero:
            continue
        w = rng.choice(weights)
        top = max(vdot(w, e) for e in f.terms)
        got = initial_form(w, f)
        assert typed_terms(got) == [t for t in typed_terms(f) if vdot(w, t[0]) == top]
        assert all(c is f.terms[e] for e, c in got.terms.items())
        fractions += any(type(c) is Fraction for c in got.terms.values())
    assert fractions > 0


def test_refined_leading_monomial_identity(a3):
    sg, ordering = a3
    rng = random.Random(59)
    weights = [(2, -1), (1, 0), (2, 0), (4, -3), (0, 1)]
    for _ in range(200):
        f = random_poly(sg, rng)
        if f.is_zero:
            continue
        w = rng.choice(weights)
        refined = MatrixOrdering((w,) + ordering.rows, sg)
        assert leading_monomial(refined, f) == leading_monomial(
            ordering, initial_form(w, f)
        )
