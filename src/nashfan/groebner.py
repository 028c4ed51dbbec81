"""Division, Buchberger completion and reduced Groebner bases in S."""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .algebra import MatrixOrdering, Poly, leading_monomial
from .lattice import (
    AffineSemigroup,
    cone_coords,
    contains,
    coords_below,
    min_common_multiples,
    points_below,
    vadd,
    vsub,
)


# the S-pairs one ``buchberger`` run may reduce before it raises RuntimeError
MAX_REDUCTIONS = 10 ** 6


@dataclass(frozen=True)
class Ideal:
    """Generators; the colength dim S/I if known, at which ``buchberger``
    stops; and optionally ``times``, one tuple of nonzero semigroup members
    per generator.  With ``times`` the ideal is generated by the products
    g_i * (x^a - 1) for a in times[i], as the tower of ``nash.jn_bases``
    hands over J_n; ``buchberger`` reads a product, unbuilt, only when it
    inserts it, and orders the products by the first term of each g_i.
    """

    generators: tuple
    colength: int | None = None
    times: tuple | None = None

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
        if self.times is not None:
            times = tuple(map(tuple, self.times))
            object.__setattr__(self, "times", times)
            if len(times) != len(gens):
                raise ValueError(f"{len(times)} times for {len(gens)} generators")
            if not any(times):
                raise ValueError("ideal needs at least one product")
            for a in set(itertools.chain.from_iterable(times)):
                if a == (0, 0) or not contains(sg.dual_cone, a):
                    raise ValueError(f"time {a} is not a nonzero semigroup member")


@dataclass(frozen=True)
class MarkedBasis:
    """Reduced Groebner basis with marked leading monomials.

    Elements are stored sorted lexicographically by mark, so that a basis
    built in another element order (``interreduce``'s increasing-mark
    order, or a JSON file's order) compares equal, and so that ``to_json``
    and ``gb``'s text output list the elements in this order.  Nothing is
    checked here: ``interreduce`` defines a reduced basis, and
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


def _divisor(g: Poly, mark, ord: MatrixOrdering) -> tuple:
    """The row of a divisor table for g marked at mark: (α, β, lc, tail,
    mark, key), key the ordering's key of the mark.

    Readers unpack a row by these names, except the per-term scan of
    ``_reduce``, which reads α and β by index: in a CPython 3.11
    microbenchmark over 100 rows, unpacking each row made the scan 30%
    slower.  ``divisor_table`` and ``buchberger`` sort rows on the key.

    The tail is a list: tuples of many different small lengths would fill
    CPython's per-length tuple free lists, which only a full garbage
    collection empties, and raised the peak memory of a long run.
    """
    tail = [(u0, u1, c) for (u0, u1), c in g.terms.items() if (u0, u1) != mark]
    return (*cone_coords(ord.sg.dual_cone, mark), g.terms[mark], tail, mark, ord.key(mark))


def divisor_table(pairs, ord: MatrixOrdering) -> list:
    """The divisors of ``_reduce``: one row per (poly, mark) pair, by increasing mark.

    A row holds the mark's cone coordinates α, β of ``lattice.cone_coords``,
    the coefficient lc at the mark, the other terms as (u0, u1, coefficient)
    triples, the mark and its key.  The tail keeps exponents rather than
    offsets from the mark: a step shifts it by one vector either way, and
    small exponents are cached int objects where negative offsets are not.
    The sort is stable, so of equal marks the one given first comes first.
    ``buchberger`` keeps its table sorted by bisect insertion on the key,
    and ``interreduce`` by appending in increasing mark order, once it
    divides.
    ``normal_form`` keeps the first row and sorts the others by tail length.
    """
    return sorted((_divisor(g, m, ord) for g, m in pairs), key=operator.itemgetter(5))


def _reduce(f: Poly, table, ord: MatrixOrdering, a=None, h=None, b=None) -> Poly:
    """Division remainder of f by a ``divisor_table``, up to a factor; given
    a, h and b, that of x^a f - x^b h, read from the two term dicts.

    The result is a nonzero integer multiple of the remainder on division
    by the monic divisors g / lc(g); it is exactly that remainder when every
    divisor is monic, as in a ``MarkedBasis``.  A divisor with lc l != 1 is
    applied by pseudo-division: before it reduces a term c x^e, the whole
    remainder so far (pending terms and finished output) is scaled by
    l / gcd(l, c), so that the quotient coefficient c / gcd(l, c) and every
    coefficient stay integers when f and the divisors have integer
    coefficients.  A non-monic divisor needs an integral f.

    Tie-breaks: reduce the largest reducible monomial of the remainder,
    using the first row in table order that divides; row 0 holds the
    smallest mark.  ``divisor_table``, ``buchberger`` and ``interreduce``
    keep every row in increasing mark order, since there the reducer
    decides the intermediate basis and the size of its coefficients.
    ``normal_form`` divides by a reduced basis, whose remainder no choice
    of reducer changes, so it orders its rows after the first by
    increasing tail length, for fewer tail updates.  Every monomial introduced
    by a reduction step sits strictly below the reduced one, so a single
    descending pass visits each monomial once, and the result's terms
    come out in decreasing order: its first term is its leading monomial.

    Each pending monomial is one record [key0, key1, monomial,
    coefficient], keyed on the ordering's two rows, negated.  A dict from
    monomial to record finds it, and the same record sits in one of two
    streams that the pass merges: the input's records, sorted once, and a
    heap of the records that steps add (Monagan and Pearce, J. Symb.
    Comput. 2011).  f's own dict is read once and never copied.  In the
    difference form the records are f's terms shifted by a, from which h's
    terms shifted by b are subtracted in place: one dict lookup per term
    of h, and a new record where it meets none.  So x^a f - x^b h is never
    built as a ``Poly``, and its terms are walked once.  A record that
    cancels there leaves the dict before the sort, and a summed
    coefficient is demoted as ``Poly`` stores it, so that pseudo-division
    meets an int.  A step cancels the reduced term and adds the divisor's
    tail, shifted by e - mark: one dict lookup per tail term, whose
    coefficient it changes in place, or one new record, stored and pushed.
    A taken term reads its coefficient from its record and needs no
    lookup.  A record taken from the heap leaves the dict, since every
    later step adds only terms strictly below it, so a long chain of steps
    by one row holds only its pending records; the input's records stay,
    as its sorted list holds them to the end anyway.  A record that a step
    cancels stays in its stream until it is taken and skipped.

    Divisibility is tested on the cone coordinates of ``lattice.cone_coords``,
    computed inline for each term taken, from the exponent cone's rays
    read once per call, against those of each row, in table order.  Mark
    order keeps coefficients small where the reducer matters: in
    insertion order, remainders of cone((0,1),(101,−1)) at n = 2 grew from
    31 to 1,827 bits.

    A mark divides no monomial below it, and the first row has the
    smallest mark.  So once a term taken at or below that mark is kept or
    skipped as cancelled, no row divides a pending term: the loop stops
    and appends them in decreasing order.  The rest of the input's sorted
    list is one run, so one sort merges the few heap leftovers into it.
    The reducing path tests nothing more.

    The remainder's dict is written once, in decreasing order, and becomes
    the result's through ``Poly._of``, which copies and checks nothing: each
    kept term as it is taken, then the appended ones, but no cancelled
    record.  A product of Fractions can be integral, so each coefficient
    written is demoted as ``Poly`` stores it: an integral Fraction as its
    int numerator.
    """
    dual = ord.sg.dual_cone
    (x1, y1), (x2, y2) = dual.ray1, dual.ray2
    (p0, p1), (q0, q1) = ord.rows
    p0, p1, q0, q1 = -p0, -p1, -q0, -q1
    # lists compare like tuples, and the two keys differ for distinct
    # monomials, so the sort, the heap and the floor test never compare
    # a monomial or a coefficient
    if h is None:
        terms = {e: [p0 * e[0] + p1 * e[1], q0 * e[0] + q1 * e[1], e, c] for e, c in f.terms.items()}
    else:
        a0, a1 = a
        b0, b1 = b
        terms = {
            e: [p0 * e[0] + p1 * e[1], q0 * e[0] + q1 * e[1], e, c]
            for (u0, u1), c in f.terms.items() for e in ((u0 + a0, u1 + a1),)
        }
        for (u0, u1), c in h.terms.items():
            v0, v1 = u0 + b0, u1 + b1
            e = (v0, v1)
            r = terms.get(e)
            if r is None:
                terms[e] = [p0 * v0 + p1 * v1, q0 * v0 + q1 * v1, e, -c]
            else:
                c = r[3] - c
                if c:
                    r[3] = c if type(c) is int or c.denominator != 1 else c.numerator
                else:
                    del terms[e]
    # the input's records in decreasing order, walked from i on; the heap
    # holds only the records that steps add
    stream = sorted(terms.values())
    n = len(stream)
    i = 0
    heap = []
    out = {}
    # the key of the smallest mark; every record is >= [], so with no row
    # the first term taken ends the loop
    floor = []
    if table:
        m0, m1 = table[0][4]
        floor = [p0 * m0 + p1 * m1, q0 * m0 + q1 * m1]
    while True:
        if heap and (i == n or heap[0] < stream[i]):
            rec = heappop(heap)
            del terms[rec[2]]
        elif i < n:
            rec = stream[i]
            i += 1
        else:
            break
        _, _, e, c = rec
        if not c:
            if rec >= floor:
                break
            continue
        e0, e1 = e
        a = e0 * y2 - e1 * x2
        b = x1 * e1 - y1 * e0
        for row in table:
            if a >= row[0] and b >= row[1]:
                break
        else:
            out[e] = c if type(c) is int or c.denominator != 1 else c.numerator
            if rec >= floor:
                break
            continue
        _, _, lc, tail, (m0, m1), _ = row
        if lc != 1:
            k = math.gcd(lc, c)
            s = lc // k
            if s != 1:
                for r in terms.values():
                    r[3] *= s
                for e2 in out:
                    out[e2] *= s
            c //= k
        s0, s1 = e0 - m0, e1 - m1
        for u0, u1, c2 in tail:
            v0, v1 = u0 + s0, u1 + s1
            e3 = (v0, v1)
            r = terms.get(e3)
            if r is None:
                r = terms[e3] = [p0 * v0 + p1 * v1, q0 * v0 + q1 * v1, e3, -c * c2]
                heappush(heap, r)
            else:
                r[3] -= c * c2
    # no row divides a pending record; the rest of the stream is one sorted
    # run, so the sort merges the few heap leftovers into it
    rest = stream[i:]
    rest += heap
    rest.sort()
    for _, _, e, c in rest:
        if c:
            out[e] = c if type(c) is int or c.denominator != 1 else c.numerator
    return Poly._of(ord.sg, out)


# the basis normal_form divided by last, and its divisor table
_last_table = (None, None)


def normal_form(f: Poly, basis: MarkedBasis) -> Poly:
    """Remainder of f on full division by the basis; support avoids all marks.

    The callers divide by one basis many times in a row: the fan sweep's
    lift divides each h of a flip by the same G, and ``verify_paper``
    divides each (uv - 1) g by the same GB(J_n).  So the basis's
    ``divisor_table`` is kept for the next call, which rebuilds it only
    for another basis object.  Only the last basis's table is kept, so a
    caller holding many bases holds no tables; that basis and its table
    stay alive until a call on another basis.

    The table is ordered for the cheapest division: the row of smallest
    mark first, as ``_reduce``'s early stop reads it, then the others by
    increasing tail length, ties in mark order.  ``_reduce`` divides a
    term by the first row that divides it, and a step costs one update
    per tail term.  By a reduced basis the remainder is the same whichever
    row reduces a term (Cox, Little and O'Shea, "Ideals, Varieties, and
    Algorithms", Ch. 2 §6), so the order changes the work, not the
    result: on the benchmark's a3_normal_form queries over GB(J_7) the
    steps add 9.5-11.9% fewer tail terms than in mark order (five seeds).
    """
    global _last_table
    last, table = _last_table
    if last is not basis:
        table = divisor_table(basis.elements, basis.ordering)
        table[1:] = sorted(table[1:], key=lambda row: len(row[3]))
        _last_table = basis, table
    return _reduce(f, table, basis.ordering)


def _primitive(f: Poly) -> Poly:
    """The multiple of f with coprime integer coefficients and a positive
    first term; f itself when it is one already.

    The content of integer coefficients is one ``math.gcd`` call.  Only
    when that raises ``TypeError``, as on a Fraction (a Poly stores every
    integral value as an int), are the coefficients first scaled by the
    lcm of their denominators.
    """
    terms = f.terms
    try:
        k = math.gcd(*terms.values())
    except TypeError:
        den = math.lcm(*[c.denominator for c in terms.values()])
        terms = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
        k = math.gcd(*terms.values())
    if next(iter(terms.values())) < 0:
        k = -k
    if k == 1:
        return f if terms is f.terms else Poly._of(f.sg, terms)
    return Poly._of(f.sg, {e: c // k for e, c in terms.items()})


def buchberger(ideal: Ideal, ord: MatrixOrdering) -> MarkedBasis:
    """The unique reduced Groebner basis of the ideal under the ordering.

    Each generator, by increasing leading monomial, then each S-pair
    (i, j, m), m a minimal common multiple of the two marks, is reduced by
    the working basis and its remainder added, marked at the remainder's
    first term, which ``_reduce`` emits as its leading monomial.  With the
    ideal's ``times`` the generators are the products g_i * (x^a - 1), by
    increasing f_i + a, ties in the order (i, a) of ``times``, where f_i is
    the first term of g_i.  In a term order x^a lies above 1, so f_i + a is
    the product's leading monomial when f_i is g_i's, as in every basis
    that ``buchberger`` returns; the tower of ``nash.jn_bases`` hands those
    over, and is spared a search of each g_i.  Any other order of the
    products gives the same basis, at another cost.  Each g_i is made
    primitive once, which makes its products primitive (Gauss's lemma),
    and a product is handed to ``_reduce`` in difference form,
    x^a g_i - g_i, only at its turn: a product after the colength stop is
    never built.  Given the ideal's ``colength``, the run stops once the
    working marks leave exactly that many standard monomials, counted
    after each addition (Traverso, J. Symb. Comput. 1996): the marks'
    standard set contains the ideal's, so equal sizes make the working
    basis a Groebner basis.  A colength
    too large could stop early; one too small never stops.  The set is
    infinite exactly while no mark lies on one of the rays of the exponent
    cone (α = 0 or β = 0 of ``lattice.cone_coords``), and the run counts
    nothing then.  At the first finite set it keeps the cone coordinates
    of its points, which ``lattice.coords_below`` walks from the rows' α
    and β, and each later addition drops those that its mark divides.
    ``MAX_REDUCTIONS`` caps the S-pairs reduced.

    No pair is pushed until every generator is inserted, so a run that the
    colength stops during reduce-on-insert computes no minimal common
    multiple.  Then the pairs (i, j) of the working basis are pushed by
    increasing j, then i, and those of each later element right after it
    is added, unless the run has stopped.  The heap pops them by the key
    of m, then by j, then by i: the order they were pushed in among equal
    keys, since the minimal common multiples of one pair have distinct keys.

    The working basis is fraction-free: every element, generators included,
    is stored as a primitive integer polynomial (coprime coefficients) with
    positive lc, never divided by its lc.  ``_reduce`` pseudo-divides, so
    each remainder is a nonzero multiple of its monic counterpart.  The
    pair (i, j, m) is reduced raw, as x^(m - mi) gi - x^(m - mj) gj, which
    ``_reduce`` reads in difference form from gi and gj, with no scaling
    of the lcs li, lj to match.  When li = lj this is the S-polynomial.  Otherwise the term at m survives with coefficient
    li - lj, and ``_reduce`` takes it first, with the row r of smallest
    mark that divides m.  If r is i or j, what remains is a multiple of
    the S-polynomial, whose remainder is the same multiple of its own.
    Otherwise mr divides m, so by Buchberger's chain criterion (EUROSAM
    1979) the pairs (i, r) and (r, j), at minimal common multiples that
    divide m, cover (i, j), and the run reduces them too; induction on m,
    then on the mark of r, ends every such chain.  With a colength, the
    stop certifies the basis anyway.  Each new row goes into the
    ``divisor_table`` by ``bisect.insort`` on its key field, so the table
    stays in increasing mark order.  Only the final pass (``interreduce``)
    divides each kept element by its lc, which may leave Fractions.

    Without a colength no pair criterion drops a pair and no working
    element is ever dropped, so a small input can run for minutes: the
    ideal of 4x^(3,5) - x^(3,12) + 4x^(1,3) and 4x^(3,8) + 4x^(5,15) -
    5x^(1,2) over cone((0,1),(5,-1)) under rows ((0,1),(5,0)) took 75 s
    and 38,698 ``_reduce`` calls to return a basis of two elements, far
    below ``MAX_REDUCTIONS``.  Every CLI path passes a colength; only
    direct calls reach this case, such as on the ideal that
    ``nash.jn_generators`` returns.  ROADMAP item 7 tracks a cap.
    """
    sg = ord.sg
    basis = []
    table = []
    heap = []
    reductions = 0
    # whether a working mark lies on the ray α = 0, on the ray β = 0; once
    # both do, the cone coordinates of the marks' standard monomials
    on_ray = [False, False]
    std = None
    row_key = operator.itemgetter(5)

    def insert(f, *diff) -> bool:
        nonlocal std
        r = _reduce(f, table, ord, *diff)
        if r.is_zero:
            return False
        g = _primitive(r)
        mr = next(iter(g.terms))
        basis.append((g, mr))
        row = _divisor(g, mr, ord)
        bisect.insort(table, row, key=row_key)
        if ideal.colength is None:
            return False
        if std is None:
            on_ray[0] |= row[0] == 0
            on_ray[1] |= row[1] == 0
            if not all(on_ray):
                return False
            std = coords_below(sg.dual_cone, [(row[0], row[1]) for row in table])
        else:
            std = [(a, b) for a, b in std if a < row[0] or b < row[1]]
        return len(std) == ideal.colength

    # reduce-on-insert keeps the working basis small from the start
    gens = ideal.generators
    if ideal.times is None:
        lms = [leading_monomial(ord, g) for g in gens]
        order = sorted(range(len(gens)), key=lambda i: ord.key(lms[i]))
        stopped = any(insert(_primitive(gens[i])) for i in order)
    else:
        gens = [_primitive(g) for g in gens]
        firsts = [next(iter(g.terms)) for g in gens]
        order = sorted(((i, a) for i, ts in enumerate(ideal.times) for a in ts),
                       key=lambda ia: ord.key(vadd(firsts[ia[0]], ia[1])))
        stopped = any(insert(gens[i], a, gens[i], (0, 0)) for i, a in order)

    pushed = 0
    while not stopped:
        for j in range(pushed, len(basis)):
            for i in range(j):
                for m in min_common_multiples(sg, basis[i][1], basis[j][1]):
                    heappush(heap, (ord.key(m), j, i, m))
        pushed = len(basis)
        if not heap:
            break
        _, j, i, m = heappop(heap)
        if reductions >= MAX_REDUCTIONS:
            raise RuntimeError(f"more than {MAX_REDUCTIONS} S-pair reductions")
        reductions += 1
        (gi, mi), (gj, mj) = basis[i], basis[j]
        stopped = insert(gi, vsub(m, mi), gj, vsub(m, mj))

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

    An element is divided only when a kept mark divides one of its terms,
    so each division changes its input; one kept undivided keeps its term
    order.  A mark divides no monomial below it, so the scan skips a term
    below the smallest kept mark, the first one kept, on its key under the
    ordering read inline as in ``_reduce``; it tests the others on their
    cone coordinates against the kept marks'.  On the A3 tower's inputs to
    n = 20 it skips 23,488 of their 23,778 terms and divides none.  The
    kept elements' ``divisor_table`` is built, by appending, only when an
    element is divided, so an input that needs no division costs no row.
    """
    dual = ord.sg.dual_cone
    (x1, y1), (x2, y2) = dual.ray1, dual.ray2
    (p0, p1), (q0, q1) = ord.rows
    kept, coords, table = [], [], []
    for g, m in sorted(pairs, key=lambda gm: ord.key(gm[1])):
        am, bm = cone_coords(dual, m)
        if any(am >= a and bm >= b for a, b in coords):
            continue
        if not kept:
            floor = ord.key(m)
        for e0, e1 in g.terms:
            if (p0 * e0 + p1 * e1, q0 * e0 + q1 * e1) < floor:
                continue
            a = e0 * y2 - e1 * x2
            b = x1 * e1 - y1 * e0
            for a2, b2 in coords:
                if a >= a2 and b >= b2:
                    break
            else:
                continue
            table += [_divisor(h, mh, ord) for h, mh in kept[len(table):]]
            g = _reduce(g, table, ord)
            break
        lc = g.terms[m]
        g = g if lc == 1 else g * Fraction(1, lc)
        kept.append((g, m))
        coords.append((am, bm))
    return MarkedBasis(tuple(kept), ord)


def standard_monomials(basis: MarkedBasis) -> set:
    """Semigroup members that no mark divides, by ``lattice.points_below``."""
    std = points_below(basis.sg.dual_cone, basis.marks())
    if std is None:
        raise ValueError("no mark lies on one of the rays of the exponent cone")
    return std
