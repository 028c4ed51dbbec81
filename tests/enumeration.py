"""Bounded enumeration of semigroup members, used by the test oracles."""

from nashfan.lattice import vdot
from nashfan.semigroup import is_member


class InvalidWeight(ValueError):
    """Weight vector does not bound the enumeration region."""


def enumerate_below(sg, weight, bound: int) -> list:
    """All members a with a.weight <= bound, sorted by weight then lex."""
    rho1, rho2 = sg.dual_cone.ray1, sg.dual_cone.ray2
    w1, w2 = vdot(weight, rho1), vdot(weight, rho2)
    if w1 <= 0 or w2 <= 0:
        raise InvalidWeight(f"weight {weight} is not strictly positive on both rays")
    if bound < 0:
        return []
    t1, t2 = -(-bound // w1), -(-bound // w2)
    corners = [(0, 0), (t1 * rho1[0], t1 * rho1[1]), (t2 * rho2[0], t2 * rho2[1])]
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    found = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            if is_member(sg, p) and vdot(weight, p) <= bound:
                found.append(p)
    found.sort(key=lambda p: (vdot(weight, p), p))
    return found
