"""Groebner-fan cones of marked bases and the 2-D angular sweep."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MatrixOrdering, initial_form
from .groebner import Ideal, MarkedBasis, buchberger, interreduce, normal_form, standard_monomials
from .lattice import (
    AffineSemigroup,
    Cone2,
    cone_from_inequalities,
    multiplicity,
    rot_ccw,
    vadd,
)


@dataclass(frozen=True)
class GroebnerCone:
    cone: Cone2
    basis: MarkedBasis

    def to_json(self) -> dict:
        data = self.cone.to_json()
        data["multiplicity"] = multiplicity(self.cone)
        data["basis"] = self.basis.to_json()
        return data


def cone_of_basis(basis: MarkedBasis) -> GroebnerCone:
    """The cone of weights in sigma keeping every mark on top of its polynomial.

    The normals are mark - e for every term e of an element, the mark's own
    zero normal included: it constrains no weight.
    """
    normals = [(m0 - e0, m1 - e1) for g, (m0, m1) in basis.elements for e0, e1 in g.terms]
    return GroebnerCone(cone_from_inequalities(normals, basis.sg.support_cone), basis)


def sweep_start(sg: AffineSemigroup) -> MatrixOrdering:
    """The ordering of the sweep's first cone: sigma's first ray, tie-broken inward."""
    support = sg.support_cone
    return MatrixOrdering((support.ray1, vadd(support.ray1, support.ray2)), sg)


def groebner_fan(first: MarkedBasis) -> list:
    """All maximal Groebner-fan cones, swept across sigma in angular order.

    `first` is the reduced basis under sweep_start(sg).  Each later cone is
    reached from its neighbour's reduced basis G by a Groebner flip at the
    shared frontier ray w (Fukuda, Jensen and Thomas, "Computing Groebner
    fans", Math. Comp. 2007), a one-step Groebner walk.  The new ordering
    has w as its first row and a tie-break row pointing on in the rotation,
    which selects the far side of the frontier without epsilon arithmetic.
    The flip takes four steps:

    1. in_w(g) of every g in G;
    2. H, the reduced basis of these initial forms under the new ordering,
       by ``buchberger``;
    3. the lift h - normal_form(h, G) of every h in H, a division by G
       under G's own ordering, except that an h equal to some in_w(g) is
       lifted to g;
    4. ``interreduce`` of the lifts under the new ordering.

    w lies in the closure of G's cone, so every mark of G is a term of
    maximal w-weight of its element.  Then G is also a Groebner basis under
    w-weight refined by G's ordering, and in_w(G) is a Groebner basis of
    in_w(J_n) under G's ordering.  H is the reduced basis of in_w(J_n)
    under the new ordering, and each h in H is w-homogeneous, of weight d
    say.  Dividing h by G, a step on a term of weight d subtracts a
    multiple of some g whose terms of weight d form in_w(g) and whose other
    terms weigh less; a step on a lighter term adds only lighter terms.  So
    the terms of weight d of r = normal_form(h, G) are the remainder of h
    on division by in_w(G), which is 0, and r weighs less than d
    throughout.  The lift f = h - r lies in J_n and in_w(f) = h.  The new
    ordering compares w-weight first, so f keeps the leading monomial of
    h, and the initial ideal of J_n under it is that of in_w(J_n), which
    the marks of H generate.  The lifts are thus a Groebner basis of J_n
    under the new ordering, and one inter-reduction makes it reduced.  All
    of this needs w in the closure of G's cone, so G is flipped only there.
    If h = in_w(g), then g - h is a sum of terms of g other than its mark,
    which G leaves standard, and g reduces to 0; the normal form is linear,
    so normal_form(h, G) = h - g and the lift is g itself.

    Step 2 stops at the colength of ``first``: w lies inside σ, so in_w(J_n)
    has the initial ideal of J_n under w refined by a term order, and keeps
    its colength.
    """
    sg = first.sg
    if first.ordering != sweep_start(sg):
        raise ValueError("the sweep starts from the reduced basis under sweep_start(sg)")
    colength = len(standard_monomials(first))
    cones = []
    basis = first
    frontier = sg.support_cone.ray1
    while True:
        gc = cone_of_basis(basis)
        if gc.cone.ray1 != frontier:
            raise RuntimeError(f"cone {gc.cone} does not start at frontier ray {frontier}")
        cones.append(gc)
        frontier = gc.cone.ray2
        if frontier == sg.support_cone.ray2:
            return cones
        if len(cones) >= 10 ** 4:
            raise RuntimeError("more than 10000 cones; sweep is not terminating")
        ord = MatrixOrdering((frontier, rot_ccw(frontier)), sg)
        known = {initial_form(frontier, g): g for g, _ in basis.elements}
        flip = buchberger(Ideal(known, colength), ord)
        lifts = [
            (known[h] if h in known else h.shift_sub((0, 0), normal_form(h, basis), (0, 0)), m)
            for h, m in flip.elements
        ]
        basis = interreduce(lifts, ord)


def fan_to_json(cones: list) -> dict:
    return {
        "support": cones[0].basis.sg.support_cone.to_json(),
        "cones": [gc.to_json() for gc in cones],
    }
