"""Semigroup polynomials over Q, matrix monomial orderings, initial forms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import AffineSemigroup, Vec, contains, cross, vadd, vdot


def _demote(c):
    """An integral Fraction as its int numerator; any other value unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class Poly:
    """Finite map from semigroup monomials to nonzero exact rationals.

    Each coefficient is an int where it is integral and a Fraction
    otherwise; int == Fraction with equal hashes, so equality, hashing and
    JSON do not depend on which type holds a value.  A float coefficient,
    or a float operand of +, - or *, raises TypeError rather than be stored
    as its binary expansion.
    """

    __slots__ = ("sg", "terms")

    def __init__(self, sg: AffineSemigroup, terms=None):
        clean = {}
        for e, c in (terms or {}).items():
            if isinstance(c, float):
                raise TypeError(f"coefficient {c!r} at {e} is a float; give an int or a Fraction")
            c = _demote(Fraction(c))
            if c == 0:
                continue
            if not contains(sg.dual_cone, e):
                raise ValueError(f"exponent {e} is not a semigroup member")
            clean[e] = c
        self.sg = sg
        self.terms = clean

    @classmethod
    def _make(cls, sg, terms):
        # internal constructor: exponents already known to be members
        p = object.__new__(cls)
        p.sg = sg
        p.terms = {e: _demote(c) for e, c in terms.items() if c}
        return p

    @classmethod
    def zero(cls, sg) -> "Poly":
        return cls._make(sg, {})

    @classmethod
    def monomial(cls, sg, exp: Vec, coeff=1) -> "Poly":
        return cls(sg, {exp: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"operand {other!r} is a {type(other).__name__}; give an int, a Fraction or a Poly")
        if self.sg != other.sg:
            raise ValueError("polynomials over different semigroups")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.sg == other.sg and self.terms == other.terms

    def __hash__(self):
        return hash((self.sg, frozenset(self.terms.items())))

    def __neg__(self):
        return Poly._make(self.sg, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.monomial(self.sg, (0, 0), other) if other else Poly.zero(self.sg)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly._make(self.sg, out)

    __radd__ = __add__

    def __sub__(self, other):
        # check before negating, so that an error names the operand given
        if not isinstance(other, (int, Fraction)):
            self._check(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly._make(self.sg, {e: other * v for e, v in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = vadd(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return Poly._make(self.sg, out)

    __rmul__ = __mul__

    def shift_sub(self, a: Vec, other: "Poly", b: Vec) -> "Poly":
        """x^a * self - x^b * other, in one pass over the two term dicts.

        Terms that cancel are dropped.  Only a summed coefficient can turn
        integral, so only those are demoted; a shifted or negated term keeps
        its coefficient's type.  The terms come in the order that
        ``Poly.__sub__`` gives the two shifted polynomials: those of
        x^a * self, then the others of x^b * other.
        """
        self._check(other)
        a0, a1 = a
        b0, b1 = b
        out = {(e0 + a0, e1 + a1): c for (e0, e1), c in self.terms.items()}
        for (e0, e1), c in other.terms.items():
            e = (e0 + b0, e1 + b1)
            old = out.get(e)
            if old is None:
                out[e] = -c
                continue
            d = old - c
            if d:
                out[e] = d if type(d) is int else _demote(d)
            else:
                del out[e]
        p = object.__new__(Poly)
        p.sg = self.sg
        p.terms = out
        return p

    def to_json(self) -> dict:
        items = sorted(self.terms.items())
        return {
            "terms": [
                {"exp": list(e), "num": c.numerator, "den": c.denominator}
                for e, c in items
            ]
        }

    @classmethod
    def from_json(cls, sg, data: dict) -> "Poly":
        return cls(sg, {
            tuple(t["exp"]): Fraction(t["num"], t["den"]) for t in data["terms"]
        })

    def __repr__(self):
        return f"Poly({dict(sorted(self.terms.items()))})"


@dataclass(frozen=True)
class MatrixOrdering:
    """Monomial ordering by successive integer weight rows, stored as the
    two that decide it: the first nonzero row p and the first row q
    independent of p.  Every row before q is zero or a multiple of p, so
    it ties whatever p ties, and p, q span R^2, so together they tie no
    two distinct monomials: the given rows and (p, q) order the monomials
    alike, and the two orderings compare equal.  Every generator must lie
    above the unit."""

    rows: tuple
    sg: AffineSemigroup

    def __post_init__(self):
        rows = [tuple(r) for r in self.rows]
        p = next((r for r in rows if r != (0, 0)), (0, 0))
        q = next((r for r in rows if cross(p, r)), None)
        if q is None:
            raise ValueError("rows do not span R^2; distinct monomials could compare equal")
        object.__setattr__(self, "rows", (p, q))
        for g in self.sg.generators:
            if self.key(g) <= (0, 0):
                raise ValueError(f"rows {p}, {q} order generator {g} below the unit")

    def key(self, a: Vec) -> tuple:
        (p0, p1), (q0, q1) = self.rows
        return p0 * a[0] + p1 * a[1], q0 * a[0] + q1 * a[1]


def leading_monomial(ord: MatrixOrdering, f: Poly) -> Vec:
    if f.sg != ord.sg:
        raise ValueError("polynomial and ordering over different semigroups")
    if f.is_zero:
        raise ValueError("zero polynomial has no leading monomial")
    return max(f.terms, key=ord.key)


def initial_form(w: Vec, f: Poly) -> Poly:
    """Sum of the terms of f with maximal w-weight; in_w(0) = 0."""
    if not contains(f.sg.support_cone, w):
        raise ValueError(f"{w} is outside the support cone")
    if f.is_zero:
        return f
    m = max(vdot(w, e) for e in f.terms)
    return Poly._make(f.sg, {e: c for e, c in f.terms.items() if vdot(w, e) == m})
