"""The monomial universe of a 2-D affine semigroup ring.

Membership and divisibility are cone-membership tests (the semigroup is
saturated), and minimal common multiples feed S-pair construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import (
    Cone2,
    Vec,
    cone_coords,
    contains,
    dual_cone,
    hilbert_basis,
    minimal_points,
    vsub,
)


@dataclass(frozen=True)
class AffineSemigroup:
    """σ^∨ intersected with Z^2, with a fixed generator list."""

    dual_cone: Cone2          # σ^∨, the cone of exponents
    generators: tuple         # Hilbert basis of dual_cone ∩ Z^2
    support_cone: Cone2       # σ, the cone of weight vectors

    @classmethod
    def from_support_cone(cls, support: Cone2) -> "AffineSemigroup":
        dual = dual_cone(support)
        return cls(dual, tuple(sorted(hilbert_basis(dual))), support)


def is_member(sg: AffineSemigroup, a: Vec) -> bool:
    return contains(sg.dual_cone, a)


def divides(sg: AffineSemigroup, b: Vec, a: Vec) -> bool:
    """True iff x^b divides x^a in the semigroup ring."""
    return contains(sg.dual_cone, vsub(a, b))


def min_common_multiples(sg: AffineSemigroup, a: Vec, b: Vec) -> set:
    """Divisibility-minimal elements of (a + σ^∨) ∩ (b + σ^∨) ∩ Z^2.

    A common multiple is a point whose cone coordinates α, β (see
    ``lattice.cone_coords``) are at least those of both a and b.
    """
    c = sg.dual_cone
    (a1, a2), (b1, b2) = cone_coords(c, a), cone_coords(c, b)
    return minimal_points(c, max(a1, b1), max(a2, b2))
