"""The A3 application layer: J_n (the ``jn_bases`` tower, which hands
each level to ``buchberger`` as products g * (x^a - 1) left unbuilt,
capped at ``MAX_GENERATORS`` semigroup generators, and the product
expansion ``jn_generators`` that tests and the benchmark compare it with),
the P_n/D_n families, the Laurent specialization φ, Nash-blowup fans, and
``verify_paper``, whose report is the dict that ``verify`` prints."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .algebra import MatrixOrdering, Poly
from .fan import cone_of_basis, groebner_fan, sweep_start
from .groebner import Ideal, buchberger, normal_form, standard_monomials
from .lattice import AffineSemigroup, Cone2, Vec, multiplicity, vscale


# ---------------------------------------------------------------------------
# the A3 context

def a3_semigroup() -> AffineSemigroup:
    """sigma = cone((0,1),(4,-3)); the ring C[u, u^3v^4, uv]."""
    return AffineSemigroup(Cone2((0, 1), (4, -3)))


def a3_ordering(sg: AffineSemigroup) -> MatrixOrdering:
    return MatrixOrdering(((2, -1), (1, 1)), sg)


def jn_generators(sg: AffineSemigroup, n: int) -> Ideal:
    """All degree-(n+1) products of the binomials x^a - 1 over the generators."""
    if n < 1:
        raise ValueError("n must be positive")
    binomials = [Poly.monomial(sg, a) - 1 for a in sg.generators]
    gens = tuple(
        math.prod(combo, start=Poly.monomial(sg, (0, 0)))
        for combo in itertools.combinations_with_replacement(binomials, n + 1)
    )
    return Ideal(gens)


# the most semigroup generators jn_bases takes: at n = 1 buchberger queues
# one product per pair of them, about 500,000 at the cap, and builds only
# those it inserts
MAX_GENERATORS = 1000


def jn_bases(sg: AffineSemigroup, ord: MatrixOrdering):
    """GB(J_1), GB(J_2), ... under one fixed ordering, each from the one before.

    J_n = J_(n-1) * I, so the products g * (x^a - 1) of the reduced basis of
    J_(n-1) with the binomials generate J_n; the binomials stand in for
    GB(J_0) = I, and at n = 1 each b_i * b_j is taken for i <= j only.  The
    ``Ideal`` holds the products unbuilt, as the g and their ``times``, the
    exponents a.  Each g leads with its mark, as every basis that
    ``buchberger`` returns does, so ``buchberger`` orders the products by
    their leading monomials mark(g) + a without a search of g.  It reads
    each in difference form, x^a g - g, only at its turn, so it builds no
    product after the colength stop.
    Reuse a basis only under the ordering that made it: fed to a far
    ordering, these short generators can make Buchberger's coefficients
    blow up.

    ``buchberger`` stops at the colength N = (n+1)(n+2)/2 of J_n: I is the
    maximal ideal of the identity of the torus, a smooth point, so
    dim S/I^(n+1) counts the monomials of degree <= n in two variables.

    A semigroup with more than ``MAX_GENERATORS`` generators raises
    ``ValueError`` before any product is queued.
    """
    if len(sg.generators) > MAX_GENERATORS:
        raise ValueError(f"the semigroup has {len(sg.generators)} generators, "
                         f"above the cap of {MAX_GENERATORS}")
    gens = [Poly.monomial(sg, a) - 1 for a in sg.generators]
    times = [sg.generators[i:] for i in range(len(gens))]
    for n in itertools.count(1):
        basis = buchberger(Ideal(gens, (n + 1) * (n + 2) // 2, times), ord)
        yield basis
        gens = [g for g, _ in basis.elements]
        times = [sg.generators] * len(gens)


def jn_basis_at(sg: AffineSemigroup, ord: MatrixOrdering, n: int):
    """GB(J_n) under the ordering: the n-th basis of the jn_bases tower."""
    if n < 1:
        raise ValueError("n must be positive")
    return next(itertools.islice(jn_bases(sg, ord), n - 1, None))


# ---------------------------------------------------------------------------
# the combinatorial families

@dataclass(frozen=True)
class PnFamily:
    """Predicted mark set of the reduced basis of J_n, split into strands."""

    n: int
    p: Vec
    q: tuple
    r: tuple
    s: Vec

    def points(self) -> set:
        return {self.p, *self.q, *self.r, self.s}


def pn_family(n: int) -> PnFamily:
    """P_n: p = (⌊(n+3)/2⌋, 0), q_i = (n+1-i, n-2i) for i < ⌈n/2⌉,
    r_j = (n+1+j, n+1+2j) for j <= ⌊n/2⌋ and s = (⌊n/2⌋+1)(3,4).

    These equal the paper's separate odd and even cases, which the tests
    keep as an oracle.
    """
    if n < 1:
        raise ValueError("n must be positive")
    h = n // 2
    q = tuple((n + 1 - i, n - 2 * i) for i in range(n - h))
    r = tuple((n + 1 + j, n + 1 + 2 * j) for j in range(h + 1))
    return PnFamily(n, ((n + 3) // 2, 0), q, r, vscale(h + 1, (3, 4)))


# the standard monomials of J_1, where the recursion D_n = D_(n-1) | (P_(n-1) - P_n) starts
D_1 = frozenset({(0, 0), (1, 0), (1, 1)})


def dn_set(n: int) -> set:
    """Standard monomials of J_n, built by the disjoint-union recursion."""
    if n < 1:
        raise ValueError("n must be positive")
    d = set(D_1)
    for k in range(2, n + 1):
        d |= pn_family(k - 1).points() - pn_family(k).points()
    return d


def phi_linear(a: Vec) -> int:
    return a[1] - a[0]


def l_vector(n: int) -> Vec:
    """Primitive generator of the second ray of the cone of GB(J_n):
    l_n = (4⌊n/2⌋, 1 - 2⌊n/2⌋), which equals the paper's (2n - 2, 2 - n)
    for odd n and (2n, 1 - n) for even n."""
    h = n // 2
    return (4 * h, 1 - 2 * h)


# ---------------------------------------------------------------------------
# the Laurent specialization u -> 1/lambda, v -> lambda

def phi_specialize(f: Poly) -> dict:
    """Image of f under u^x v^y -> lambda^(y - x), as exponent -> coefficient."""
    if f.sg != a3_semigroup():
        raise ValueError("phi is defined on the A3 semigroup ring only")
    out = {}
    for e, c in f.terms.items():
        k = phi_linear(e)
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# verification report

def verify_paper(n_max: int) -> dict:
    """Recompute every checkable per-n fact about GB(J_n) up to n_max.

    The report is the dict that ``verify --format json`` prints: ``n_max``,
    ``all_passed`` and one ``claims`` record per claim, keyed ``n``,
    ``claim_id``, ``statement``, ``pass``, ``witness``.  A witness is
    formatted only for a failing claim and is empty otherwise.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    sg = a3_semigroup()
    ordering = a3_ordering(sg)
    claims = []

    def claim(claim_id, statement, ok, witness=lambda: ""):
        claims.append({"n": n, "claim_id": claim_id, "statement": statement,
                       "pass": ok, "witness": "" if ok else witness()})

    prev_basis = prev_fam = None
    dn = set(D_1)
    for n, basis in zip(range(1, n_max + 1), jn_bases(sg, ordering)):
        fam = pn_family(n)
        if n >= 2:
            dn |= prev_fam.points() - fam.points()

        claim("a", "marks of the reduced basis equal the predicted family",
              basis.marks() == fam.points(), lambda: f"marks={sorted(basis.marks())}")

        std = standard_monomials(basis)
        claim("b", "standard monomials equal D_n of size (n+1)(n+2)/2",
              std == dn and len(dn) == (n + 1) * (n + 2) // 2, lambda: f"standard={sorted(std)}")

        gc = cone_of_basis(basis)
        claim("c", "cone of the basis has rays (2,-1) and the parity ray",
              gc.cone == Cone2((2, -1), l_vector(n)), lambda: f"cone={gc.cone}")

        mult = multiplicity(gc.cone)
        claim("d", "cone multiplicity is 2 (an A1 singularity)",
              mult == 2, lambda: f"multiplicity={mult}")

        if n >= 2:
            if n % 2 == 1:
                mark, needed = fam.q[(n - 1) // 2], prev_fam.r[(n - 1) // 2]
            else:
                mark, needed = fam.p, prev_fam.s
            g = next((g for g, m in basis.elements if m == mark), None)
            claim("e", "the second-ray witness monomial appears in the expected element",
                  g is not None and needed in g.terms,
                  lambda: f"element marked {mark} misses {needed}")

            claim("f", "(uv-1) times every previous basis element lies in J_n", all(
                normal_form(g.shift_sub((1, 1), g, (0, 0)), basis).is_zero
                for g, _ in prev_basis.elements
            ))

        if n % 2 == 0:
            dropped = prev_fam.points() - fam.points()
            bad = [m for g, m in basis.elements if m in dropped and phi_specialize(g)]
            claim("g", "phi annihilates basis elements marked in the dropped strand",
                  not bad, lambda: f"phi nonzero at marks {bad}")

        prev_basis, prev_fam = basis, fam
    return {"n_max": n_max, "all_passed": all(c["pass"] for c in claims), "claims": claims}


# ---------------------------------------------------------------------------
# Nash blowup fan of a toric surface cone

def nash_fan(surface_cone: Cone2, n: int) -> list:
    """Fan of the normalized n-th Nash blowup: the ``GroebnerCone``s of J_n.

    They come as ``groebner_fan`` sweeps them, in angular order from the
    cone's first ray to its second; the blowup is singular iff one of them
    has multiplicity above 1.
    """
    sg = AffineSemigroup(surface_cone)
    return groebner_fan(jn_basis_at(sg, sweep_start(sg), n))
