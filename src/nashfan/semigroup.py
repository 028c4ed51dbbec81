"""The monomial universe of a 2-D affine semigroup ring.

Membership and divisibility are cone-membership tests (the semigroup is
saturated), and minimal common multiples feed S-pair construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import (
    Cone2,
    Vec,
    contains,
    cross,
    dual_cone,
    hilbert_basis,
    vdot,
    vsub,
)


@dataclass(frozen=True)
class AffineSemigroup:
    """sigma^vee intersected with Z^2, with a fixed generator list."""

    dual_cone: Cone2          # sigma^vee, the cone of exponents
    generators: tuple         # Hilbert basis of dual_cone ∩ Z^2
    support_cone: Cone2       # sigma, the cone of weight vectors

    @classmethod
    def from_support_cone(cls, support: Cone2) -> "AffineSemigroup":
        dual = dual_cone(support)
        return cls(dual, tuple(sorted(hilbert_basis(dual))), support)

    def to_json(self) -> dict:
        return {
            "dual_cone": self.dual_cone.to_json(),
            "generators": [list(g) for g in self.generators],
        }


def is_member(sg: AffineSemigroup, a: Vec) -> bool:
    return contains(sg.dual_cone, a)


def divides(sg: AffineSemigroup, b: Vec, a: Vec) -> bool:
    """True iff x^b divides x^a in the semigroup ring."""
    return contains(sg.dual_cone, vsub(a, b))


def min_common_multiples(sg: AffineSemigroup, a: Vec, b: Vec) -> set:
    """Divisibility-minimal elements of (a + sigma_Z) ∩ (b + sigma_Z).

    Let n1, n2 be the facet normals of sigma^vee (the rays of sigma), with
    n1 vanishing on ray rho1 of sigma^vee and n2 on rho2.  A common multiple
    m with n2-slack >= n2.rho1 stays a common multiple after subtracting
    rho1, and likewise for rho2, so every minimal element lies in the
    parallelogram where both slacks are below those pairings.
    """
    rho1, rho2 = sg.dual_cone.ray1, sg.dual_cone.ray2
    normals = [sg.support_cone.ray1, sg.support_cone.ray2]
    n_a = next(n for n in normals if vdot(n, rho1) == 0)
    n_b = next(n for n in normals if vdot(n, rho2) == 0)
    c_a = vdot(n_a, rho2)   # drop of the n_a-slack when subtracting rho2
    c_b = vdot(n_b, rho1)   # drop of the n_b-slack when subtracting rho1
    lo_a = max(vdot(n_a, a), vdot(n_a, b))
    lo_b = max(vdot(n_b, a), vdot(n_b, b))
    det = cross(n_a, n_b)
    candidates = []
    for p in range(lo_a, lo_a + c_a):
        for q in range(lo_b, lo_b + c_b):
            # solve n_a.m = p, n_b.m = q
            mx, my = p * n_b[1] - q * n_a[1], q * n_a[0] - p * n_b[0]
            if mx % det == 0 and my % det == 0:
                candidates.append((mx // det, my // det))
    return {
        m for m in candidates
        if not any(m2 != m and divides(sg, m2, m) for m2 in candidates)
    }
