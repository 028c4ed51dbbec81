"""Groebner-fan cones of marked bases and the 2-D angular sweep."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MatrixOrdering
from .groebner import Ideal, MarkedBasis, buchberger
from .lattice import (
    Cone2,
    Fan2,
    cone_from_inequalities,
    multiplicity,
    rot_ccw,
    vadd,
    vsub,
)
from .semigroup import AffineSemigroup


class SweepStalled(RuntimeError):
    """The angular sweep failed to advance; indicates an engine bug."""


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
    """The cone of weights in sigma keeping every mark on top of its polynomial."""
    normals = [
        vsub(mark, e)
        for g, mark in basis.elements
        for e in g.support()
        if e != mark
    ]
    return GroebnerCone(cone_from_inequalities(normals, basis.sg.support_cone), basis)


def sweep_start(sg: AffineSemigroup) -> MatrixOrdering:
    """The ordering of the sweep's first cone: sigma's first ray, tie-broken inward."""
    support = sg.support_cone
    return MatrixOrdering((support.ray1, vadd(support.ray1, support.ray2)), sg)


def groebner_fan(first: MarkedBasis) -> list:
    """All maximal Groebner-fan cones, swept across sigma in angular order.

    `first` is the reduced basis under sweep_start(sg).  Each later cone runs
    Buchberger on its neighbour's basis, with the shared frontier ray as the
    first row and a tie-break row pointing on in the rotation, which selects
    the far side of the frontier without epsilon arithmetic.  Reuse a basis
    only there: under a far ordering its coefficients can blow up.
    """
    sg = first.sg
    if first.ordering != sweep_start(sg):
        raise ValueError("the sweep starts from the reduced basis under sweep_start(sg)")
    cones = []
    basis = first
    frontier = sg.support_cone.ray1
    while True:
        gc = cone_of_basis(basis)
        if gc.cone.ray1 != frontier:
            raise SweepStalled(f"cone {gc.cone} does not start at frontier ray {frontier}")
        cones.append(gc)
        frontier = gc.cone.ray2
        if frontier == sg.support_cone.ray2:
            return cones
        if len(cones) >= 10 ** 4:
            raise SweepStalled("more than 10000 cones; sweep is not terminating")
        ord = MatrixOrdering((frontier, rot_ccw(frontier)), sg)
        basis = buchberger(Ideal(g for g, _ in basis.elements), ord)


def fan_of_cones(cones: list) -> Fan2:
    return Fan2(tuple(gc.cone for gc in cones), cones[0].basis.sg.support_cone)


def fan_to_json(cones: list) -> dict:
    return {
        "support": cones[0].basis.sg.support_cone.to_json(),
        "cones": [gc.to_json() for gc in cones],
    }
