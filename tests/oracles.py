"""Reference computations that the tests compare the engine against.

Nothing under ``src/nashfan`` calls these: bounded enumeration of semigroup
members, S-polynomials at every minimal common multiple, and the ℚ[λ] gcd
that checks φ(J_n) = ((λ - 1)^(n+1)).
"""

import math
from fractions import Fraction

from nashfan.lattice import vdot, vsub
from nashfan.nash import a3_semigroup, jn_generators, phi_specialize
from nashfan.semigroup import AffineSemigroup, is_member, min_common_multiples


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


def s_polynomials(p1, p2, sg: AffineSemigroup) -> list:
    """One S-polynomial per minimal common multiple of the two marks."""
    (g1, m1), (g2, m2) = p1, p2
    return [
        g1.shift(vsub(m, m1)) - g2.shift(vsub(m, m2))
        for m in sorted(min_common_multiples(sg, m1, m2))
    ]


def laurent_gcd(images) -> list:
    """Monic gcd over Q of Laurent polynomials given as exponent -> coefficient.

    Q[lambda^(+-1)] is a principal ideal domain whose units are the
    monomials, so each image is divided by its lowest power of lambda and
    the gcd is returned as coefficients from lambda^0 upward.  The empty
    list stands for the zero ideal (no images, or all of them zero).
    """
    g = []
    for f in images:
        if not f:
            continue
        lo = min(f)
        a = [Fraction(f.get(e, 0)) for e in range(lo, max(f) + 1)]
        while a:
            g, a = a, _remainder(g, a)
    return [c / g[-1] for c in g]


def _remainder(a, b):
    """Remainder of a on division by b, both coefficient lists low to high."""
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        for i, c in enumerate(b, len(a) - len(b)):
            a[i] -= q * c
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def phi_ideal_is_power(n: int) -> bool:
    """Whether phi(J_n) = ((lambda - 1)^(n+1)): the gcd of the images is that power."""
    images = [phi_specialize(g) for g in jn_generators(a3_semigroup(), n).generators]
    k = n + 1
    return laurent_gcd(images) == [(-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)]
