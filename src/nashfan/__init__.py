"""Exact Groebner bases and fans of ideals in 2-D affine semigroup rings,
applied to higher Nash blowups of toric surface singularities.

The package root exports nothing: import each name from its module."""
