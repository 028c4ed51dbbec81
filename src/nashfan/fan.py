"""Groebner-fan cones of marked bases and the 2-D angular sweep."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MatrixOrdering
from .groebner import Ideal, MarkedBasis, buchberger
from .lattice import (
    Cone2,
    Fan2,
    cone_from_inequalities,
    cross,
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


def cone_of_basis(basis: MarkedBasis, support: Cone2) -> GroebnerCone:
    """The cone of weights keeping every mark on top of its polynomial."""
    normals = [
        vsub(mark, e)
        for g, mark in basis.elements
        for e in g.support()
        if e != mark
    ]
    return GroebnerCone(cone_from_inequalities(normals, support), basis)


def groebner_fan(ideal: Ideal, sg: AffineSemigroup, max_cones: int = 10 ** 4) -> list:
    """All maximal Groebner-fan cones, swept across sigma in angular order.

    Each step computes the basis at the current frontier ray with the
    tie-break row pointing in the direction of continued rotation, which
    selects the cone on the far side of the frontier without epsilon
    arithmetic.  Only the first cone starts from the ideal's generators;
    each later one starts from its neighbour's reduced basis, which shares
    the frontier ray, the first row of the new ordering.  Reuse a basis
    only at the neighbouring cone: fed to a far ordering, it can make
    Buchberger's coefficients blow up.
    """
    support = sg.support_cone
    interior = vadd(support.ray1, support.ray2)
    cones = []
    frontier = support.ray1
    while True:
        rotation = interior if not cones else rot_ccw(frontier)
        ord = MatrixOrdering((frontier, rotation), sg)
        seed = ideal if not cones else Ideal(g for g, _ in cones[-1].basis.elements)
        gc = cone_of_basis(buchberger(seed, ord), support)
        if gc.cone.ray1 != frontier:
            raise SweepStalled(f"cone {gc.cone} does not start at frontier ray {frontier}")
        if cones and cross(cones[-1].cone.ray2, gc.cone.ray2) <= 0:
            raise SweepStalled(f"far ray did not advance past {frontier}")
        cones.append(gc)
        frontier = gc.cone.ray2
        if frontier == support.ray2:
            return cones
        if len(cones) >= max_cones:
            raise SweepStalled(f"more than {max_cones} cones; sweep is not terminating")


def fan_of_cones(cones: list, support: Cone2) -> Fan2:
    return Fan2(tuple(gc.cone for gc in cones), support)


def fan_to_json(cones: list, support: Cone2) -> dict:
    return {
        "support": support.to_json(),
        "cones": [gc.to_json() for gc in cones],
    }
