"""Reference computations that the tests compare the engine against.

Nothing under ``src/nashfan`` calls these: the dot product (``vdot``),
divisibility of monomials (``divides``), bounded enumeration of
semigroup members, minimal common multiples by a scan of a box, random
members of a semigroup with three generators, multiplication by a
monomial, S-polynomials at every minimal common multiple, the strand
shift θ and the pairing ψ with the second ray of the cone of GB(J_n),
the ℚ[λ] gcd that checks
φ(J_n) = ((λ - 1)^(n+1)), a certificate that a basis is the reduced
basis of J_n which never calls ``buchberger``, the check that a list of
cones tiles a support cone in angular order, an inter-reduction that
divides every kept element, the primitive part of a polynomial over
Fractions, and the points below a staircase walked column by column.
It also holds the inputs that several test modules share: the cyclic
quotient cones up to a given index (``cyclic_cones``), a
polynomial's terms with their coefficient types (``typed_terms``), and
the reduced basis of J_1 on A3 pinned in ``golden/a3_j1_basis.json``
(``golden_j1_basis``).
"""

import json
import math
from fractions import Fraction
from pathlib import Path

from nashfan.algebra import MatrixOrdering, Poly
from nashfan.groebner import MarkedBasis, _divisor, _reduce
from nashfan.lattice import (
    AffineSemigroup,
    Cone2,
    _columns,
    cone_coords,
    contains,
    min_common_multiples,
    vadd,
    vsub,
)
from nashfan.nash import a3_semigroup, jn_generators, l_vector, phi_specialize


class InvalidWeight(ValueError):
    """Weight vector does not bound the enumeration region."""


def vdot(a, b) -> int:
    """The dot product of two vectors."""
    return a[0] * b[0] + a[1] * b[1]


def divides(sg: AffineSemigroup, b, a) -> bool:
    """True iff x^b divides x^a in the semigroup ring."""
    return contains(sg.dual_cone, vsub(a, b))


def in_dual(sg, p) -> bool:
    """p lies in σ^∨: it pairs nonnegatively with both rays of σ."""
    sigma = sg.support_cone
    return vdot(p, sigma.ray1) >= 0 and vdot(p, sigma.ray2) >= 0


def enumerate_below(sg, weight, bound: int) -> list:
    """All members a with a.weight <= bound, sorted by weight then lex.

    Membership is the definition of σ^∨ (``in_dual``), not the engine's
    cone coordinates.
    """
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
            if in_dual(sg, p) and vdot(weight, p) <= bound:
                found.append(p)
    found.sort(key=lambda p: (vdot(weight, p), p))
    return found


def mcm_oracle(sg, a, b):
    """Divisibility-minimal common multiples, by a scan of a symmetric box.

    The box reaches past a and b by twice the rays of σ^∨.  A weight inside
    σ puts every proper divisor first, so a common multiple is minimal iff
    no minimal one found before it divides it.
    """
    r1, r2 = sg.dual_cone.ray1, sg.dual_cone.ray2
    bound = max(map(abs, a + b)) + 2 * (max(map(abs, r1)) + max(map(abs, r2)))
    w = vadd(sg.support_cone.ray1, sg.support_cone.ray2)
    common = sorted(
        (
            (x, y)
            for x in range(-bound, bound + 1)
            for y in range(-bound, bound + 1)
            if divides(sg, a, (x, y)) and divides(sg, b, (x, y))
        ),
        key=lambda m: vdot(w, m),
    )
    minimal = []
    for m in common:
        if not any(divides(sg, q, m) for q in minimal):
            minimal.append(m)
    return set(minimal)


def random_member(sg, rng, span=5):
    """A combination of the three generators, each taken 0 to span times."""
    g1, g2, g3 = sg.generators
    a, b, c = rng.randint(0, span), rng.randint(0, span), rng.randint(0, span)
    return (
        a * g1[0] + b * g2[0] + c * g3[0],
        a * g1[1] + b * g2[1] + c * g3[1],
    )


def shift(f, a):
    """x^a * f, term by term in f's order."""
    return Poly(f.sg, {vadd(e, a): c for e, c in f.terms.items()})


def s_polynomials(p1, p2, sg: AffineSemigroup) -> list:
    """One S-polynomial per minimal common multiple of the two marks."""
    (g1, m1), (g2, m2) = p1, p2
    return [
        shift(g1, vsub(m, m1)) - shift(g2, vsub(m, m2))
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


def theta(a):
    """The shift a + (1, 1) that carries the strands of P_n into P_(n+1)."""
    return vadd(a, (1, 1))


def psi(n: int, a) -> int:
    """The pairing of a with the second ray l_n of the cone of GB(J_n), n >= 2."""
    if n < 2:
        raise ValueError("psi is defined for n >= 2")
    return vdot(l_vector(n), a)


def phi_ideal_is_power(n: int) -> bool:
    """Whether phi(J_n) = ((lambda - 1)^(n+1)): the gcd of the images is that power."""
    images = [phi_specialize(g) for g in jn_generators(a3_semigroup(), n).generators]
    k = n + 1
    return laurent_gcd(images) == [(-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)]


def _binomials(x: int, n: int) -> list:
    """[C(x, 0), ..., C(x, n)] with C(x, k) = x(x-1)...(x-k+1)/k!, exact for x < 0 too."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (x - k) // (k + 1))
    return row


def in_jn(f, n: int) -> bool:
    """Whether f lies in J_n = I^(n+1), by its Hasse derivatives at the identity.

    I = (x^a - 1) is the maximal ideal of the identity point of the torus,
    which is smooth, and J_n is I-primary.  So f = Σ c_e x^e lies in J_n
    iff every Hasse derivative of order <= n vanishes there:
    Σ c_e C(e1, i) C(e2, j) = 0 for all i + j <= n.
    """
    moments = {}
    for (e1, e2), c in f.terms.items():
        b1, b2 = _binomials(e1, n), _binomials(e2, n)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                moments[i, j] = moments.get((i, j), 0) + c * b1[i] * b2[j]
    return not any(moments.values())


def standard_set(basis):
    """The members that no mark of the basis divides; None if infinitely many.

    Divisibility is read from the definition of σ^∨ (``in_dual``), not from
    cone coordinates.  The set is finite iff a mark lies on each ray of
    σ^∨, that is, pairs to 0 with a ray of σ.  Then with m1 ⊥ ray1 and
    m2 ⊥ ray2 of σ, a member e that neither divides has e·ray2 < m1·ray2
    and e·ray1 < m2·ray1, so w·e < w·m1 + w·m2 for w = ray1 + ray2, and
    enumerating up to 2·max(w·mark) finds it.
    """
    sg, marks = basis.sg, basis.marks()
    rays = (sg.support_cone.ray1, sg.support_cone.ray2)
    if not all(any(vdot(m, r) == 0 for m in marks) for r in rays):
        return None
    w = vadd(*rays)
    return {
        e for e in enumerate_below(sg, w, 2 * max(vdot(w, m) for m in marks))
        if not any(in_dual(sg, vsub(e, m)) for m in marks)
    }


def reduced(basis) -> bool:
    """Whether each element is monic at its mark, the mark is its top term
    under the rows of the ordering, and no mark divides another mark or
    another term of the element (``in_dual``)."""
    sg, rows = basis.sg, basis.ordering.rows
    marks = [m for _, m in basis.elements]
    return all(
        g.terms.get(m, 0) == 1
        and max(g.terms, key=lambda e: tuple(vdot(r, e) for r in rows)) == m
        and sum(in_dual(sg, vsub(m, m2)) for m2 in marks) == 1  # only m itself
        and not any(in_dual(sg, vsub(e, m2)) for e in g.terms if e != m for m2 in marks)
        for g, m in basis.elements
    )


def certified(basis, n: int) -> bool:
    """Whether a ``MarkedBasis`` is the reduced basis of J_n.

    If every element lies in J_n (``in_jn``), the marks lie in in(J_n), so
    their standard set contains that of J_n, which has N = (n+1)(n+2)/2
    members.  Exactly N standard monomials then make the marks generate
    in(J_n), so the basis is a Groebner basis of J_n, and ``reduced``
    checks that it is the reduced one.  Neither ``buchberger``, the
    engine's cone coordinates nor ``MarkedBasis.from_json`` are used.
    """
    std = standard_set(basis)
    return (
        std is not None
        and len(std) == (n + 1) * (n + 2) // 2
        and reduced(basis)
        and all(in_jn(g, n) for g, _ in basis.elements)
    )


def validate_fan(cones, support) -> bool:
    """Whether the cones, in the order given, tile the support face to face.

    The first cone starts at the support's ray1, each cone's ray2 is the
    next cone's ray1, the last cone ends at the support's ray2, and every
    ray lies in the support.  Each cone turns counter-clockwise from its
    ray1 to its ray2, so such a chain sweeps the support once.
    """
    if not cones:
        return False
    if cones[0].ray1 != support.ray1 or cones[-1].ray2 != support.ray2:
        return False
    for a, b in zip(cones, cones[1:]):
        if a.ray2 != b.ray1:
            return False
    return all(contains(support, c.ray1) and contains(support, c.ray2) for c in cones)


def full_interreduce(pairs, ord: MatrixOrdering) -> MarkedBasis:
    """``groebner.interreduce`` with no test before the division: every kept
    element is divided by the kept ones, whether or not a kept mark divides
    one of its terms, so the result's terms come in ``_reduce``'s
    decreasing order."""
    dual = ord.sg.dual_cone
    kept, table = [], []
    for g, m in sorted(pairs, key=lambda gm: ord.key(gm[1])):
        a, b = cone_coords(dual, m)
        if not any(a >= am and b >= bm for am, bm, _, _, _ in table):
            g = _reduce(g, table, ord)
            lc = g.terms[m]
            g = g if lc == 1 else g * Fraction(1, lc)
            kept.append((g, m))
            table.append(_divisor(g, m, ord))
    return MarkedBasis(tuple(kept), ord)


def primitive(f):
    """f divided by its content over Fractions: the gcd of the numerators
    over the lcm of the denominators, negated when the first term is
    negative, so the first term comes out positive."""
    coeffs = [Fraction(c) for c in f.terms.values()]
    content = Fraction(
        math.gcd(*[c.numerator for c in coeffs]),
        math.lcm(*[c.denominator for c in coeffs]),
    )
    if coeffs[0] < 0:
        content = -content
    return Poly(f.sg, {e: Fraction(c) / content for e, c in f.terms.items()})


def column_walk(c, corners):
    """The lattice points of c that no corner divides, or None if infinitely
    many, column by column: every column α = a of ``lattice._columns`` from
    α = 0, each up to the lowest β of the corners at or left of it, until
    the corner with β = 0.  It visits as many columns as the α of that
    corner, at least the multiplicity of c, whatever the points it finds."""
    coords = [cone_coords(c, p) for p in corners]
    if all(a for a, _ in coords) or all(b for _, b in coords):
        return None
    d, t, point = _columns(c)
    points, a = set(), 0
    while height := min(b for am, b in coords if am <= a):
        points.update(point(a, b) for b in range(a * t % d, height, d))
        a += 1
    return points


def cyclic_cones(d_max):
    """cone((0, 1), (d, -k)) for 2 <= d <= d_max and 0 < k < d coprime to d."""
    return [
        Cone2((0, 1), (d, -k))
        for d in range(2, d_max + 1)
        for k in range(1, d)
        if math.gcd(d, k) == 1
    ]


def typed_terms(f):
    """f's (exponent, coefficient, coefficient type) triples in f's order."""
    return [(e, c, type(c)) for e, c in f.terms.items()]


def golden_j1_basis(ordering):
    """The reduced basis of J_1 on A3 under ordering, read from the golden file."""
    path = Path(__file__).parent / "golden" / "a3_j1_basis.json"
    return MarkedBasis.from_json(ordering, json.loads(path.read_text()))
