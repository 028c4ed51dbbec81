"""Division, Buchberger completion and reduced Groebner bases in S."""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import MatrixOrdering, Poly, leading_monomial
from .lattice import cone_coords, vsub
from .semigroup import AffineSemigroup, min_common_multiples


class QuotientNotFinite(ValueError):
    """Standard monomial enumeration exceeded its cap without closing."""


class PairQueueExhausted(RuntimeError):
    """Defensive cap on S-pair reductions hit; indicates an engine bug."""


@dataclass(frozen=True)
class Ideal:
    generators: tuple

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
    """

    elements: tuple           # of (Poly, mark) pairs
    ordering: MatrixOrdering

    def __post_init__(self):
        elems = tuple(sorted(self.elements, key=lambda gm: gm[1]))
        object.__setattr__(self, "elements", elems)
        dual = self.ordering.sg.dual_cone
        marks = [m for _, m in elems]
        if len(set(marks)) != len(marks):
            raise ValueError("marks must be pairwise distinct")
        mark_ab = [(m2, *cone_coords(dual, m2)) for m2 in marks]
        for g, m in elems:
            if leading_monomial(self.ordering, g) != m or g.coeff(m) != 1:
                raise ValueError(f"element marked {m} is not monic with that leading monomial")
            for e in g.support():
                a, b = cone_coords(dual, e)
                for m2, am, bm in mark_ab:
                    if m2 != m and a >= am and b >= bm:
                        raise ValueError(f"monomial {e} of element {m} is divisible by mark {m2}")

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
        elems = tuple(
            (Poly.from_json(ordering.sg, e["poly"]), tuple(e["mark"]))
            for e in data["elements"]
        )
        return cls(elems, ordering)


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


def _connected(ab, basis, mcms, reduced, i, j, m) -> bool:
    """True iff working elements i and j are joined in the graph at degree m.

    Its vertices are the elements whose mark divides m.  Two of them, a < b,
    are joined when m is no minimal common multiple of their marks (then
    one properly divides m, as m is a common multiple), or when the pair
    (a, b, m) has already been reduced.  ``ab`` maps every mark and every
    minimal common multiple to its cone coordinates (α, β) (see
    ``lattice.cone_coords``), so each divisibility test is two comparisons.
    """
    am, bm = ab[m]
    verts = [k for k, (_, mk) in enumerate(basis) if (c := ab[mk])[0] <= am and c[1] <= bm]
    seen, stack = {i}, [i]
    while stack:
        a = stack.pop()
        for b in verts:
            if b in seen:
                continue
            pair = (a, b) if a < b else (b, a)
            if m not in mcms[pair] or pair + (m,) in reduced:
                if b == j:
                    return True
                seen.add(b)
                stack.append(b)
    return False


def buchberger(ideal: Ideal, ord: MatrixOrdering, max_reductions: int = 10 ** 6) -> MarkedBasis:
    """The unique reduced Groebner basis of the ideal under the ordering.

    An S-pair (i, j, m), with m a minimal common multiple of the two marks,
    is skipped unreduced when ``_connected`` joins i and j at degree m (the
    chain criterion of Gebauer and Moeller, with several minimal common
    multiples per pair).  This is sound: along a path i = k0, ..., kr = j
    the S-polynomial telescopes into the sum of the S-polynomials of its
    edges at m.  An edge whose marks have a minimal common multiple m'
    properly dividing m contributes x^(m - m') times the S-polynomial at
    m', and m' lies strictly below m; any other edge is a pair already
    reduced at m.  Divisibility in S is well-founded, so induction on m
    gives every S-polynomial a standard representation by the final
    working basis.

    A pair of two monomials is skipped before the criterion is asked: both
    working elements are primitive, so they are x^mi and x^mj, and their
    S-polynomial x^m - x^m is identically 0.  It is recorded as reduced at
    m, which is sound for the argument above, since 0 has the empty
    standard representation.  ``max_reductions`` caps the S-pairs actually
    reduced; pairs skipped for either reason do not count.

    The working basis is fraction-free: every element, generators included,
    is stored as a primitive integer polynomial (coprime coefficients) with
    positive lc, never divided by its lc.  The S-polynomial of (i, j, m) is
    (lj/k) x^(m - mi) gi - (li/k) x^(m - mj) gj with k = gcd(li, lj), and
    ``_reduce`` pseudo-divides, so both are nonzero multiples of their monic
    counterparts and the argument above holds unchanged.  Only the final
    pass (``interreduce``) divides each kept element by its lc, which may
    leave Fractions.
    """
    sg = ord.sg
    dual = sg.dual_cone
    basis = []
    heap = []
    mcms = {}
    ab = {}
    reduced = set()
    reductions = 0
    tiebreak = itertools.count()

    def insert(f):
        r = _reduce(f, basis, ord)
        if r.is_zero:
            return
        mr = leading_monomial(ord, r)
        j = len(basis)
        basis.append((_primitive(r, mr), mr))
        ab[mr] = cone_coords(dual, mr)
        for i in range(j):
            mcms[i, j] = min_common_multiples(sg, basis[i][1], mr)
            for m in mcms[i, j]:
                ab[m] = cone_coords(dual, m)
                heapq.heappush(heap, (ord.key(m), next(tiebreak), i, j, m))

    # reduce-on-insert keeps the working basis small from the start
    gens = [(leading_monomial(ord, g), g) for g in ideal.generators]
    for m, g in sorted(gens, key=lambda mg: ord.key(mg[0])):
        insert(_primitive(g, m))

    while heap:
        _, _, i, j, m = heapq.heappop(heap)
        (gi, mi), (gj, mj) = basis[i], basis[j]
        if len(gi.terms) == 1 and len(gj.terms) == 1:
            reduced.add((i, j, m))
            continue
        if _connected(ab, basis, mcms, reduced, i, j, m):
            continue
        if reductions >= max_reductions:
            raise PairQueueExhausted(f"more than {max_reductions} S-pair reductions")
        reductions += 1
        reduced.add((i, j, m))
        li, lj = gi.terms[mi], gj.terms[mj]
        if li != lj:
            k = math.gcd(li, lj)
            gi, gj = gi * (lj // k), gj * (li // k)
        insert(gi.shift(vsub(m, mi)) - gj.shift(vsub(m, mj)))

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


def standard_monomials(basis: MarkedBasis, cap: int = 10 ** 5) -> set:
    """Semigroup members outside the initial ideal of the basis.

    The standard set is closed under divisors, so a search from the unit
    monomial along generator additions visits all of it.
    """
    sg = basis.sg
    dual = sg.dual_cone
    marks_ab = [cone_coords(dual, m) for m in basis.marks()]

    def standard(e):
        a, b = cone_coords(dual, e)
        return not any(a >= am and b >= bm for am, bm in marks_ab)

    if not standard((0, 0)):
        return set()
    seen = {(0, 0)}
    queue = [(0, 0)]
    while queue:
        e = queue.pop()
        for g in sg.generators:
            e2 = (e[0] + g[0], e[1] + g[1])
            if e2 not in seen and standard(e2):
                seen.add(e2)
                queue.append(e2)
                if len(seen) > cap:
                    raise QuotientNotFinite(f"more than {cap} standard monomials")
    return seen


def ideal_membership(f: Poly, basis: MarkedBasis) -> bool:
    return normal_form(f, basis).is_zero
