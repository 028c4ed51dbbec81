"""Exact 2-D lattice geometry: rational cones, duals, Hilbert bases, and
the affine semigroup σ^∨ ∩ Z^2 whose lattice points are the monomials.

All vectors are plain ``(int, int)`` tuples; all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Tuple

Vec = Tuple[int, int]


def vadd(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1])


def vsub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def vscale(k: int, a: Vec) -> Vec:
    return (k * a[0], k * a[1])


def vdot(a: Vec, b: Vec) -> int:
    return a[0] * b[0] + a[1] * b[1]


def cross(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def rot_ccw(a: Vec) -> Vec:
    return (-a[1], a[0])


def rot_cw(a: Vec) -> Vec:
    return (a[1], -a[0])


def primitive(v: Vec) -> Vec:
    g = gcd(abs(v[0]), abs(v[1]))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return (v[0] // g, v[1] // g)


@dataclass(frozen=True)
class Cone2:
    """Strongly convex full-dimensional rational cone in R^2.

    Rays are stored primitive with det(ray1; ray2) > 0, so equality is
    syntactic and order of construction arguments does not matter.
    """

    ray1: Vec
    ray2: Vec

    def __post_init__(self):
        r1, r2 = primitive(self.ray1), primitive(self.ray2)
        d = cross(r1, r2)
        if d == 0:
            raise ValueError(f"rays {r1}, {r2} are linearly dependent")
        if d < 0:
            r1, r2 = r2, r1
        object.__setattr__(self, "ray1", r1)
        object.__setattr__(self, "ray2", r2)

    def to_json(self) -> dict:
        return {"rays": [list(self.ray1), list(self.ray2)]}


def dual_cone(c: Cone2) -> Cone2:
    """The cone {u : u.v >= 0 for all v in c}."""
    return Cone2(rot_ccw(c.ray1), rot_cw(c.ray2))


def cone_coords(c: Cone2, p: Vec) -> Vec:
    """The coordinates (α, β) = (cross(p, ray2), cross(ray1, p)) of p in c.

    d·p = α·ray1 + β·ray2 with d = multiplicity(c), so p lies in c iff
    α, β >= 0, and in the semigroup of c's lattice points x^b divides x^a
    iff α(a) >= α(b) and β(a) >= β(b).  This is the one definition of α and
    β that every divisibility test reads; the division kernel
    ``groebner._reduce`` inlines these two cross products, per term taken.
    """
    (x1, y1), (x2, y2) = c.ray1, c.ray2
    return p[0] * y2 - p[1] * x2, x1 * p[1] - y1 * p[0]


def contains(c: Cone2, p: Vec) -> bool:
    """True iff p is a nonnegative combination of the rays of c."""
    a, b = cone_coords(c, p)
    return a >= 0 and b >= 0


def multiplicity(c: Cone2) -> int:
    """Index of the ray-generated sublattice; 1 iff the cone is regular."""
    return cross(c.ray1, c.ray2)


def _columns(c: Cone2):
    """(d, t, point): column α = a holds the lattice points with β ≡ a·t (mod d).

    d = cross(ray1, ray2) and t = β(v) for a v with α(v) = 1, so
    gcd(t, d) = 1; point(a, b) is the lattice point with cone coordinates
    (a, b) of ``cone_coords``.
    """
    (x1, y1), (x2, y2) = c.ray1, c.ray2
    d = multiplicity(c)
    # v = (vx, vy) with vx*y2 - vy*x2 = 1
    vx = pow(y2, -1, abs(x2)) if x2 else y2
    vy = (vx * y2 - 1) // x2 if x2 else 0
    t = cone_coords(c, (vx, vy))[1]
    return d, t, lambda a, b: ((a * x1 + b * x2) // d, (a * y1 + b * y2) // d)


def minimal_points(c: Cone2, lo1: int, lo2: int) -> set:
    """Divisibility-minimal lattice points m with α(m) >= lo1, β(m) >= lo2.

    In the cone coordinates (α, β) of ``cone_coords``, divisibility is the
    componentwise order, so the minimal points form a staircase.  Walking
    the columns of ``_columns`` up from lo1, keeping each new lowest β,
    ends at β = lo2 within d steps.
    """
    d, t, point = _columns(c)
    points, lowest, a = set(), lo2 + d, lo1
    while lowest != lo2:
        b = lo2 + (a * t - lo2) % d
        if b < lowest:
            lowest = b
            points.add(point(a, b))
        a += 1
    return points


def points_below(c: Cone2, corners) -> set | None:
    """The lattice points of c that no corner divides, or None if infinitely many.

    They are finitely many iff a corner lies on each ray of c.  The walk
    takes the columns of ``_columns`` from α = 0, each up to the lowest β
    of the corners at or left of it, until the corner with β = 0.
    """
    coords = [cone_coords(c, p) for p in corners]
    if all(a for a, _ in coords) or all(b for _, b in coords):
        return None
    d, t, point = _columns(c)
    points, a = set(), 0
    while height := min(b for am, b in coords if am <= a):
        points.update(point(a, b) for b in range(a * t % d, height, d))
        a += 1
    return points


def hilbert_basis(c: Cone2) -> set:
    """Minimal generating set of c intersected with Z^2.

    ray2 is the only irreducible element with α = 0; the others are the
    minimal points with α >= 1, all with β < d so ray2 divides none.
    """
    return minimal_points(c, 1, 0) | {c.ray2}


def cone_from_inequalities(normals: Iterable[Vec], support: Cone2) -> Cone2:
    """The weights w in the support cone with w.n >= 0 for every normal n.

    That is the dual of the cone spanned by the normals and the rays of
    dual_cone(support), widened in one pass: a normal clockwise of lo
    replaces lo, one counter-clockwise of hi replaces hi.  Raises
    ValueError once the span reaches a half-plane.
    """
    dual = dual_cone(support)
    lo, hi = dual.ray1, dual.ray2
    for n in normals:
        if cross(n, lo) > 0:
            lo = n
        elif cross(hi, n) > 0:
            hi = n
        if cross(lo, hi) <= 0:
            raise ValueError(f"feasible region inside {support} is not 2-dimensional")
    return dual_cone(Cone2(lo, hi))


@dataclass(frozen=True)
class AffineSemigroup:
    """σ^∨ intersected with Z^2; σ alone determines it."""

    support_cone: Cone2       # σ, the cone of weight vectors
    # σ^∨, the cone of exponents, and the sorted Hilbert basis of σ^∨ ∩ Z^2
    dual_cone: Cone2 = field(init=False, compare=False, repr=False)
    generators: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        dual = dual_cone(self.support_cone)
        object.__setattr__(self, "dual_cone", dual)
        object.__setattr__(self, "generators", tuple(sorted(hilbert_basis(dual))))


def min_common_multiples(sg: AffineSemigroup, a: Vec, b: Vec) -> set:
    """Divisibility-minimal elements of (a + σ^∨) ∩ (b + σ^∨) ∩ Z^2.

    A common multiple is a point whose cone coordinates α, β (see
    ``cone_coords``) are at least those of both a and b.
    """
    c = sg.dual_cone
    (a1, a2), (b1, b2) = cone_coords(c, a), cone_coords(c, b)
    return minimal_points(c, max(a1, b1), max(a2, b2))
