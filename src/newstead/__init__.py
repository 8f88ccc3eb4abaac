"""Exact presentation of the invariant cohomology ring of moduli spaces of
rank-2 stable bundles with fixed odd-degree determinant.

The subring generated by the classes alpha, beta, gamma (weights 1, 2, 3)
is a complete intersection: for genus g its relation ideal is generated by
three weighted homogeneous polynomials of degrees g, g+1, g+2, produced
either by a one-step recursion in the genus or from Taylor derivatives of
a single generating series.  This package builds those generators both
ways, computes reduced Groebner bases, standard monomial bases, Hilbert
series and socle pairings of the quotients, expands the closed-form Chern
classes of the quotient and tangent bundles, and cross-checks even Betti
numbers computed by recursion against direct generator enumeration.

All arithmetic is exact rational arithmetic; all values are immutable.
"""

from .betti import (
    betti_cross_check,
    default_s_max,
    enumerate_generator_counts,
    invariant_dimensions,
    newstead_betti,
)
from .chern import (
    GradedClass,
    chern_matches_series,
    chern_relations_check,
    quotient_chern,
    tangent_chern,
    tangent_vanishing_check,
)
from .groebner import (
    ORDER_TAG,
    GroebnerBasis,
    buchberger,
    complete_intersection_hilbert,
    hilbert_series,
    ideal_equal,
    is_groebner_basis,
    normal_form,
    pairing_ratio,
    relation_ideal_basis,
    standard_monomials,
)
from .relations import (
    RelationTriple,
    initial_terms,
    iter_recursion_triples,
    relations_by_definition,
    relations_by_recursion,
)
from .ring import ALPHA, BETA, GAMMA, ONE, ZERO, Monomial, Polynomial
from .series import (
    functional_equation_residual,
    generating_series,
    series_binomial,
    series_exp,
    taylor_derivative,
)
from .textform import ParseError, parse_poly, to_latex

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BETA",
    "GAMMA",
    "ONE",
    "ZERO",
    "Monomial",
    "Polynomial",
    "series_exp",
    "series_binomial",
    "generating_series",
    "taylor_derivative",
    "functional_equation_residual",
    "RelationTriple",
    "relations_by_recursion",
    "relations_by_definition",
    "iter_recursion_triples",
    "initial_terms",
    "ORDER_TAG",
    "GroebnerBasis",
    "buchberger",
    "relation_ideal_basis",
    "normal_form",
    "is_groebner_basis",
    "standard_monomials",
    "hilbert_series",
    "complete_intersection_hilbert",
    "pairing_ratio",
    "ideal_equal",
    "GradedClass",
    "quotient_chern",
    "tangent_chern",
    "chern_matches_series",
    "chern_relations_check",
    "tangent_vanishing_check",
    "newstead_betti",
    "enumerate_generator_counts",
    "betti_cross_check",
    "invariant_dimensions",
    "default_s_max",
    "ParseError",
    "parse_poly",
    "to_latex",
    "__version__",
]
