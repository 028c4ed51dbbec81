"""Exact Groebner bases and fans of ideals in 2-D affine semigroup rings,
applied to higher Nash blowups of toric surface singularities."""

from .lattice import (
    Cone2,
    NotFullDimensional,
    contains,
    cone_from_inequalities,
    dual_cone,
    hilbert_basis,
    multiplicity,
)
from .semigroup import (
    AffineSemigroup,
    divides,
    is_member,
    min_common_multiples,
)
from .algebra import (
    ContextMismatch,
    MatrixOrdering,
    Poly,
    WeightOutsideSigma,
    ZeroPolynomial,
    initial_form,
    leading_monomial,
)
from .groebner import (
    Ideal,
    MarkedBasis,
    PairQueueExhausted,
    QuotientNotFinite,
    buchberger,
    normal_form,
    standard_monomials,
)
from .fan import (
    GroebnerCone,
    SweepStalled,
    cone_of_basis,
    groebner_fan,
)
from .nash import (
    PnFamily,
    a3_ordering,
    a3_semigroup,
    dn_set,
    jn_bases,
    l_vector,
    nash_fan,
    phi_linear,
    phi_specialize,
    pn_family,
    verify_paper,
)

__all__ = [name for name in dir() if not name.startswith("_")]
