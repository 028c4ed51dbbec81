"""Division, Buchberger completion and reduced Groebner bases in S."""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import MatrixOrdering, Poly, leading_monomial
from .lattice import cone_coords, points_below, vsub
from .semigroup import AffineSemigroup, min_common_multiples


class QuotientNotFinite(ValueError):
    """The marks leave infinitely many standard monomials."""


class PairQueueExhausted(RuntimeError):
    """Defensive cap on S-pair reductions hit; indicates an engine bug."""


@dataclass(frozen=True)
class Ideal:
    """Generators, and the colength dim S/I if known, at which ``buchberger`` stops."""

    generators: tuple
    colength: int | None = None

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("ideal needs at least one generator")
        sg = gens[0].sg
        for g in gens:
            if g.is_zero:
                raise ValueError("ideal generators must be nonzero")
            if g.sg != sg:
                raise ValueError("ideal generators over different semigroups")

    @property
    def sg(self) -> AffineSemigroup:
        return self.generators[0].sg


@dataclass(frozen=True)
class MarkedBasis:
    """Reduced Groebner basis with marked leading monomials.

    Elements are stored sorted lexicographically by mark so that equal
    bases compare equal regardless of the ordering that produced them.
    Nothing is checked here: ``interreduce`` defines a reduced basis, and
    ``from_json`` checks outside input against it.
    """

    elements: tuple           # of (Poly, mark) pairs
    ordering: MatrixOrdering

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(self.elements, key=lambda gm: gm[1])))

    @property
    def sg(self) -> AffineSemigroup:
        return self.ordering.sg

    def marks(self) -> set:
        return {m for _, m in self.elements}

    def to_json(self) -> dict:
        return {
            "ordering": [list(r) for r in self.ordering.rows],
            "elements": [
                {"poly": g.to_json(), "mark": list(m)} for g, m in self.elements
            ],
        }

    @classmethod
    def from_json(cls, ordering: MatrixOrdering, data: dict) -> "MarkedBasis":
        """Read a basis; raise ValueError naming a mark unless it is reduced:
        each mark is the leading monomial of its element and ``interreduce``
        returns the elements unchanged (distinct marks, monic elements, no
        mark dividing another term).  The inter-reduced marks are a subset
        of the input's, in order, so the first difference has a bad mark."""
        elems = tuple(
            (Poly.from_json(ordering.sg, e["poly"]), tuple(e["mark"]))
            for e in data["elements"]
        )
        for g, m in elems:
            if leading_monomial(ordering, g) != m:
                raise ValueError(f"mark {m} is not the leading monomial of its element")
        basis = cls(elems, ordering)
        for gm, kept in itertools.zip_longest(basis.elements, interreduce(elems, ordering).elements):
            if gm != kept:
                raise ValueError(f"element marked {gm[1]} is not monic, or a mark divides a term of it")
        return basis


def _reduce(f: Poly, pairs, ord: MatrixOrdering) -> Poly:
    """Division remainder of f by a list of (poly, mark) pairs, up to a factor.

    The result is a nonzero integer multiple of the remainder on division
    by the monic divisors g / lc(g); it is exactly that remainder when every
    divisor is monic, as in a ``MarkedBasis``.  A divisor with lc l != 1 is
    applied by pseudo-division: before it reduces a term c x^e, the whole
    remainder so far (pending terms and finished output) is scaled by
    l / gcd(l, c), so that the quotient coefficient c / gcd(l, c) and every
    coefficient stay integers when f and the divisors have integer
    coefficients.  A non-monic divisor needs an integral f.

    Tie-breaks: reduce the largest reducible monomial of the remainder,
    using the divisor with the smallest mark.  Every monomial introduced
    by a reduction step sits strictly below the reduced one, so a single
    descending heap pass visits each monomial once.

    Divisibility is tested on the cone coordinates of ``lattice.cone_coords``,
    computed once per divisor mark and once per popped term.  The divisors
    are scanned in increasing mark order, so the first one that divides is
    the smallest.
    """
    dual = ord.sg.dual_cone
    neg_rows = [(-r0, -r1) for r0, r1 in ord.rows]
    divisors = sorted(
        ((*cone_coords(dual, m), (m, g, g.terms[m])) for g, m in pairs),
        key=lambda d: ord.key(d[2][0]),
    )
    terms = dict(f.terms)
    out = {}
    heap = [(tuple([r0 * e[0] + r1 * e[1] for r0, r1 in neg_rows]), e) for e in terms]
    heapq.heapify(heap)
    pending = set(terms)
    while heap:
        _, e = heapq.heappop(heap)
        pending.discard(e)
        c = terms.get(e)
        if not c:
            continue
        a, b = cone_coords(dual, e)
        for am, bm, d in divisors:
            if a >= am and b >= bm:
                break
        else:
            out[e] = c
            del terms[e]
            continue
        m, g, lc = d
        if lc != 1:
            k = math.gcd(lc, c)
            s = lc // k
            if s != 1:
                for part in (terms, out):
                    for e2 in part:
                        part[e2] *= s
            c //= k
        s0, s1 = e[0] - m[0], e[1] - m[1]
        for (u0, u1), c2 in g.terms.items():
            e3 = (u0 + s0, u1 + s1)
            nc = terms.get(e3, 0) - c * c2
            if nc:
                terms[e3] = nc
                if e3 not in pending:
                    pending.add(e3)
                    key = tuple([r0 * e3[0] + r1 * e3[1] for r0, r1 in neg_rows])
                    heapq.heappush(heap, (key, e3))
            else:
                terms.pop(e3, None)
    return Poly._make(ord.sg, out)


def normal_form(f: Poly, basis: MarkedBasis) -> Poly:
    """Remainder of f on full division by the basis; support avoids all marks."""
    return _reduce(f, basis.elements, basis.ordering)


def _primitive(f: Poly, mark) -> Poly:
    """The multiple of f with coprime integer coefficients and lc > 0 at mark."""
    den = math.lcm(*[c.denominator for c in f.terms.values()])
    terms = f.terms
    if den != 1:
        terms = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    k = math.gcd(*terms.values())
    if terms[mark] < 0:
        k = -k
    if k == 1:
        return f if den == 1 else Poly._make(f.sg, terms)
    return Poly._make(f.sg, {e: c // k for e, c in terms.items()})


def buchberger(ideal: Ideal, ord: MatrixOrdering, max_reductions: int = 10 ** 6) -> MarkedBasis:
    """The unique reduced Groebner basis of the ideal under the ordering.

    Each generator, by increasing leading monomial, then each S-pair
    (i, j, m), m a minimal common multiple of the two marks, is reduced by
    the working basis and its remainder added.  Given the ideal's
    ``colength``, the run stops once the working marks leave exactly that
    many standard monomials, checked after each addition and before its
    pairs are pushed (Traverso, J. Symb. Comput. 1996): the marks' standard
    set contains the ideal's, so equal sizes make the working basis a
    Groebner basis.  A colength too large could stop early; one too small
    never stops.  ``max_reductions`` caps the S-pairs reduced.

    The working basis is fraction-free: every element, generators included,
    is stored as a primitive integer polynomial (coprime coefficients) with
    positive lc, never divided by its lc.  The S-polynomial of (i, j, m) is
    (lj/k) x^(m - mi) gi - (li/k) x^(m - mj) gj with k = gcd(li, lj), and
    ``_reduce`` pseudo-divides, so both are nonzero multiples of their monic
    counterparts.  Only the final pass (``interreduce``) divides each kept
    element by its lc, which may leave Fractions.
    """
    sg = ord.sg
    dual = sg.dual_cone
    basis = []
    heap = []
    reductions = 0
    tiebreak = itertools.count()

    def insert(f) -> bool:
        r = _reduce(f, basis, ord)
        if r.is_zero:
            return False
        mr = leading_monomial(ord, r)
        j = len(basis)
        basis.append((_primitive(r, mr), mr))
        if ideal.colength is not None:
            std = points_below(dual, [m for _, m in basis])
            if std is not None and len(std) == ideal.colength:
                return True
        for i in range(j):
            for m in min_common_multiples(sg, basis[i][1], mr):
                heapq.heappush(heap, (ord.key(m), next(tiebreak), i, j, m))
        return False

    # reduce-on-insert keeps the working basis small from the start
    gens = [(leading_monomial(ord, g), g) for g in ideal.generators]
    stopped = any(insert(_primitive(g, m)) for m, g in sorted(gens, key=lambda mg: ord.key(mg[0])))

    while heap and not stopped:
        _, _, i, j, m = heapq.heappop(heap)
        if reductions >= max_reductions:
            raise PairQueueExhausted(f"more than {max_reductions} S-pair reductions")
        reductions += 1
        (gi, mi), (gj, mj) = basis[i], basis[j]
        li, lj = gi.terms[mi], gj.terms[mj]
        if li != lj:
            k = math.gcd(li, lj)
            gi, gj = gi * (lj // k), gj * (li // k)
        stopped = insert(gi.shift(vsub(m, mi)) - gj.shift(vsub(m, mj)))

    return interreduce(basis, ord)


def interreduce(pairs, ord: MatrixOrdering) -> MarkedBasis:
    """The reduced basis from a Groebner basis given as (poly, mark) pairs.

    Each mark is the leading monomial of its polynomial under the ordering.
    One pass by increasing mark: drop an element whose mark a kept mark
    divides, else reduce it by the kept ones and make it monic.  A mark
    lies below all of its proper multiples, so no later mark divides a
    monomial of an earlier element, and no kept mark divides the mark
    itself, whose coefficient the reduction therefore leaves alone.  The
    kept elements are monic, so each division is exact, whatever the
    coefficients of the input.
    """
    dual = ord.sg.dual_cone
    kept, kept_ab = [], []
    for g, m in sorted(pairs, key=lambda gm: ord.key(gm[1])):
        a, b = cone_coords(dual, m)
        if not any(a >= am and b >= bm for am, bm in kept_ab):
            r = _reduce(g, kept, ord)
            lc = r.terms[m]
            kept.append((r if lc == 1 else r * Fraction(1, lc), m))
            kept_ab.append((a, b))
    return MarkedBasis(tuple(kept), ord)


def standard_monomials(basis: MarkedBasis) -> set:
    """Semigroup members that no mark divides, by ``lattice.points_below``."""
    std = points_below(basis.sg.dual_cone, basis.marks())
    if std is None:
        raise QuotientNotFinite("no mark lies on one of the rays of the exponent cone")
    return std


def ideal_membership(f: Poly, basis: MarkedBasis) -> bool:
    return normal_form(f, basis).is_zero
