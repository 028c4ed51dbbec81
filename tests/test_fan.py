import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import nashfan.fan as fan_module
from nashfan.algebra import MatrixOrdering, Poly, initial_form, leading_monomial
from nashfan.fan import GroebnerCone, cone_of_basis, fan_to_json, groebner_fan, sweep_start
from nashfan.groebner import Ideal, MarkedBasis, buchberger, normal_form, standard_monomials
from nashfan.lattice import AffineSemigroup, Cone2, multiplicity, vadd, vsub
from nashfan.nash import a3_semigroup, jn_basis_at, jn_generators, l_vector

from oracles import certified, cyclic_cones, standard_set, validate_fan, vdot

GOLDEN_7_3 = Path(__file__).parent / "golden" / "cone_0_1_7_-3_fan_n2.json"

# (support cone, n) of the sweeps the colength and flip oracles run: every
# cyclic cone with d <= 9 at n = 1..3, A3 at n = 1..4, and two cones whose
# dual leaves the first quadrant
SWEEP_CASES = [(c, n) for c in cyclic_cones(9) for n in (1, 2, 3)]
SWEEP_CASES += [(a3_semigroup().support_cone, n) for n in (1, 2, 3, 4)]
SWEEP_CASES += [(c, n) for c in (Cone2((1, 0), (1, 2)), Cone2((2, 1), (-1, 3))) for n in (1, 2)]


def refined(ordering, w):
    """The ordering with w as a new first row."""
    return MatrixOrdering((w,) + ordering.rows, ordering.sg)


def random_interior_weight(cone, rng, span=6):
    a, b = rng.randint(1, span), rng.randint(1, span)
    return (
        a * cone.ray1[0] + b * cone.ray2[0],
        a * cone.ray1[1] + b * cone.ray2[1],
    )


def test_cone_of_basis_examples(a3, jn_basis):
    sg, _ = a3
    assert cone_of_basis(jn_basis(1)).cone == Cone2((0, 1), (2, -1))
    assert cone_of_basis(jn_basis(2)).cone == Cone2((2, -1), (4, -1))
    for n in range(1, 9):
        gc = cone_of_basis(jn_basis(n))
        assert gc.cone == Cone2((2, -1), l_vector(n))


def test_two_zero_lies_strictly_inside_the_cone_of_gb_j1(a3, jn_basis):
    sg, _ = a3
    gc1 = cone_of_basis(jn_basis(1))
    assert vadd(gc1.cone.ray1, gc1.cone.ray2) == (2, 0)
    # strict inequalities against every mark difference of the basis
    w = vadd(gc1.cone.ray1, gc1.cone.ray2)
    for g, mark in jn_basis(1).elements:
        for e in g.terms:
            if e != mark:
                assert vdot(vsub(mark, e), w) > 0


def test_gb_j1_is_unchanged_by_refining_at_interior_weights(a3, jn_basis):
    sg, ordering = a3
    ideal = jn_generators(sg, 1)
    at_20 = buchberger(ideal, refined(ordering, (2, 0)))
    assert at_20.elements == jn_basis(1).elements
    # any base ordering at an interior weight gives the same marked basis
    other = MatrixOrdering(((0, 1), (4, -3)), sg)
    gc = cone_of_basis(jn_basis(1))
    w = vadd(gc.cone.ray1, gc.cone.ray2)
    assert buchberger(ideal, refined(other, w)).elements == jn_basis(1).elements
    assert buchberger(ideal, refined(ordering, (0, 0))).elements == jn_basis(1).elements


def test_groebner_fan_j1(a3, jn_basis):
    sg, _ = a3
    cones = groebner_fan(buchberger(jn_generators(sg, 1), sweep_start(sg)))
    assert validate_fan([gc.cone for gc in cones], sg.support_cone)
    assert Cone2((0, 1), (2, -1)) in {gc.cone for gc in cones}
    for gc in cones:
        assert cone_of_basis(gc.basis).cone == gc.cone
    assert any(multiplicity(gc.cone) == 2 for gc in cones)


def test_groebner_fan_j2(a3):
    sg, _ = a3
    cones = groebner_fan(buchberger(jn_generators(sg, 2), sweep_start(sg)))
    assert validate_fan([gc.cone for gc in cones], sg.support_cone)
    assert Cone2((2, -1), (4, -1)) in {gc.cone for gc in cones}
    for gc in cones:
        assert cone_of_basis(gc.basis).cone == gc.cone
    assert any(multiplicity(gc.cone) == 2 for gc in cones)


def test_fan_bases_are_distinct_per_cone(a3):
    sg, _ = a3
    for n in (1, 2):
        cones = groebner_fan(buchberger(jn_generators(sg, n), sweep_start(sg)))
        bases = {gc.basis.elements for gc in cones}
        assert len(bases) == len(cones)


def test_basis_stable_across_interior_weights(a3):
    sg, ordering = a3
    rng = random.Random(79)
    for n in (1, 2):
        ideal = jn_generators(sg, n)
        for gc in groebner_fan(buchberger(ideal, sweep_start(sg))):
            for _ in range(5):
                w = random_interior_weight(gc.cone, rng)
                assert buchberger(ideal, refined(ordering, w)).elements == gc.basis.elements


def test_initial_form_at_interior_weight_is_the_mark(a3):
    sg, _ = a3
    rng = random.Random(83)
    for gc in groebner_fan(buchberger(jn_generators(sg, 1), sweep_start(sg))):
        for _ in range(5):
            w = random_interior_weight(gc.cone, rng)
            for g, mark in gc.basis.elements:
                assert initial_form(w, g) == Poly.monomial(sg, mark)


def test_fan_json_shape(a3):
    sg, _ = a3
    cones = groebner_fan(buchberger(jn_generators(sg, 1), sweep_start(sg)))
    data = fan_to_json(cones)
    assert data["support"] == sg.support_cone.to_json()
    assert len(data["cones"]) == len(cones)
    for entry, gc in zip(data["cones"], cones):
        assert entry["multiplicity"] == multiplicity(gc.cone)
        assert entry["rays"] == [list(gc.cone.ray1), list(gc.cone.ray2)]


def test_groebner_fan_refuses_a_basis_under_another_ordering(jn_basis):
    # GB(J_1) of A3 under a3_ordering is a reduced basis, but not the
    # sweep's first cone
    with pytest.raises(ValueError, match="the sweep starts from the reduced basis"):
        groebner_fan(jn_basis(1))


def test_groebner_fan_stops_at_a_cone_off_the_frontier(monkeypatch):
    # a cone that does not start where the last one ended would leave a
    # gap or an overlap in the fan; the sweep raises instead of going on
    monkeypatch.setattr(fan_module, "cone_of_basis", lambda basis: GroebnerCone(Cone2((1, 0), (0, 1)), basis))
    sg = a3_semigroup()
    with pytest.raises(RuntimeError, match=r"does not start at frontier ray \(4, -3\)"):
        groebner_fan(jn_basis_at(sg, sweep_start(sg), 1))


def test_groebner_fan_stops_at_its_cone_cap(monkeypatch):
    # cones from σ's first ray (4, -3) on through the rays (1, k) approach
    # its second ray (0, 1) and never reach it; each flip returns the first
    # basis, so no buchberger runs, and the sweep raises at its cap
    sg = a3_semigroup()
    first = jn_basis_at(sg, sweep_start(sg), 1)
    steps = itertools.pairwise(itertools.chain([(4, -3)], ((1, k) for k in itertools.count())))
    made = []

    def advancing_cone(basis):
        made.append(GroebnerCone(Cone2(*next(steps)), basis))
        return made[-1]

    monkeypatch.setattr(fan_module, "cone_of_basis", advancing_cone)
    monkeypatch.setattr(fan_module, "buchberger", lambda ideal, ord: first)
    monkeypatch.setattr(fan_module, "interreduce", lambda pairs, ord: first)
    with pytest.raises(RuntimeError, match="more than 10000 cones; sweep is not terminating"):
        groebner_fan(first)
    assert len(made) == 10 ** 4


def test_seeded_sweep_matches_unseeded_buchberger():
    """Each cone of the tower-started sweep against the product generators."""
    cases = [(c, 2) for c in cyclic_cones(7)]
    cases += [(a3_semigroup().support_cone, n) for n in (1, 2, 3)]
    # the dual of this cone leaves the first quadrant
    cases += [(Cone2((1, 0), (1, 2)), n) for n in (1, 2)]
    # three tower steps under the boundary ordering sweep_start
    cases += [(Cone2((0, 1), (7, -3)), 3), (Cone2((0, 1), (11, -4)), 3)]
    for c, n in cases:
        sg = AffineSemigroup(c)
        ideal = jn_generators(sg, n)
        for gc in groebner_fan(jn_basis_at(sg, sweep_start(sg), n)):
            assert gc.basis == buchberger(ideal, gc.basis.ordering), (c, n, gc.cone)


def test_every_fan_cone_has_the_colength_of_a_smooth_point():
    """dim S/J_n = (n+1)(n+2)/2 on every cone of the sweep that nash_fan runs.

    I = (x^a - 1) is the maximal ideal of the smooth point 1 of the torus,
    so J_n = I^(n+1) has that colength under every ordering.  Every basis
    passes the certificate of ``oracles.certified``, which calls neither
    buchberger nor the engine's standard-monomial walk, that walk agrees
    with the certificate's enumeration, and ``MarkedBasis.from_json``, the
    check on outside input, reads every basis back unchanged.
    """
    for c, n in SWEEP_CASES:
        sg = AffineSemigroup(c)
        for gc in groebner_fan(jn_basis_at(sg, sweep_start(sg), n)):
            std = standard_monomials(gc.basis)
            assert len(std) == (n + 1) * (n + 2) // 2, (c, n, gc.cone)
            assert std == standard_set(gc.basis), (c, n, gc.cone)
            assert certified(gc.basis, n), (c, n, gc.cone)
            again = MarkedBasis.from_json(gc.basis.ordering, gc.basis.to_json())
            assert again == gc.basis, (c, n, gc.cone)


def initial_basis(w, basis):
    """in_w of every element of a reduced basis, as a marked basis."""
    return MarkedBasis(tuple((initial_form(w, g), m) for g, m in basis.elements), basis.ordering)


def test_every_flip_matches_the_full_buchberger_step(monkeypatch):
    """Each step of the sweep against a Buchberger run on the previous basis.

    The reference is the step the sweep took before it flipped: the full
    Buchberger run on the previous cone's basis under the new ordering.  At
    each step w is the frontier ray, H the reduced basis of the initial
    forms and the lifts are what the flip inter-reduces.  H is
    w-homogeneous and equals in_w of the reference basis, which holds no
    monomial, though the initial forms that H is computed from mix
    monomials and binomials.  Each lift f has in_w(f) = h and the leading
    monomial of h.  Each lift equals h - normal_form(h, G), also where the
    sweep knew it without dividing: h = in_w(g) for some g in G lifts to g.
    """
    steps = []
    inner_buchberger, inner_interreduce = fan_module.buchberger, fan_module.interreduce

    def recording_buchberger(ideal, ord):
        steps.append([ideal, inner_buchberger(ideal, ord)])
        return steps[-1][1]

    def recording_interreduce(pairs, ord):
        steps[-1].append(list(pairs))
        return inner_interreduce(pairs, ord)

    monkeypatch.setattr(fan_module, "buchberger", recording_buchberger)
    monkeypatch.setattr(fan_module, "interreduce", recording_interreduce)
    mixed = known = 0
    for c, n in SWEEP_CASES:
        sg = AffineSemigroup(c)
        steps.clear()
        cones = groebner_fan(jn_basis_at(sg, sweep_start(sg), n))
        assert len(steps) == len(cones) - 1
        for prev, gc, (ideal, flip, lifts) in zip(cones, cones[1:], steps):
            ord = gc.basis.ordering
            w = ord.rows[0]
            assert w == prev.cone.ray2
            reference = buchberger(Ideal(g for g, _ in prev.basis.elements), ord)
            assert gc.basis == reference, (c, n, gc.cone)
            assert flip == initial_basis(w, reference), (c, n, gc.cone)
            mixed += {len(g.terms) == 1 for g in ideal.generators} == {True, False}
            assert len(lifts) == len(flip.elements)
            initial = {initial_form(w, g) for g, _ in prev.basis.elements}
            for (h, m), (f, mf) in zip(flip.elements, lifts):
                assert initial_form(w, h) == h
                assert initial_form(w, f) == h and mf == m
                assert leading_monomial(ord, f) == leading_monomial(ord, h) == m
                assert f == h - normal_form(h, prev.basis), (c, n, gc.cone, m)
                known += h in initial
    assert mixed and known


def test_sweep_keeps_its_non_integer_coefficients():
    """The fan of J_2 over cone((0,1),(7,-3)) ends with 18 non-integral coefficients.

    The golden file holds fan_to_json of this sweep.  JSON writes each
    coefficient as numerator and denominator, whichever type stores it.
    """
    sg = AffineSemigroup(Cone2((0, 1), (7, -3)))
    cones = groebner_fan(jn_basis_at(sg, sweep_start(sg), 2))
    assert fan_to_json(cones) == json.loads(GOLDEN_7_3.read_text())
    coeffs = [c for gc in cones for g, _ in gc.basis.elements for c in g.terms.values()]
    fractions = [c for c in coeffs if type(c) is Fraction]
    assert len(fractions) == 18
    assert all(c.denominator > 1 for c in fractions)
    assert all(type(c) is int for c in coeffs if type(c) is not Fraction)
