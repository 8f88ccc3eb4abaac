"""Weighted-graded expansions of the two closed-form total Chern classes.

Two bundles matter here: the rank g-1 quotient bundle pulled back from the
Grassmannian embedding of the moduli space, and the tangent bundle of the
moduli space itself.  Both total Chern classes have closed forms in the
invariant classes.  They are transcribed here independently of the
generating series: each closed-form polynomial becomes a power series in t
whose t^w coefficient is its weight-w component, and the series module's
truncated arithmetic (products, exp, binomial series) expands them, never
forming a term above the truncation weight.  The agreement of the two
transcriptions is one of the package's cross-checks.

The closed forms:

    c(Q)  = (1 - beta)^(-1/2)
            * exp[ alpha + sum_{m>=1} (alpha beta^m + 2 gamma beta^(m-1)) / (2m+1) ]
    c(T)  = (1 - beta)^g * exp(-4 gamma / (1 - beta)) * c(Q)^2

where the graded component of weighted degree w is the w-th Chern class.
Above weighted degree 2g-2 every component of c(T) lies in the relation
ideal, i.e. vanishes in the cohomology ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Tuple

from .groebner import GroebnerBasis, ideal_equal
from .ring import ALPHA, BETA, GAMMA, ONE, ZERO, Polynomial
from .series import PowerSeries, generating_series, series_binomial, series_exp

__all__ = [
    "QUOTIENT_BUNDLE",
    "TANGENT_MODULI",
    "GradedClass",
    "quotient_chern",
    "tangent_chern",
    "chern_matches_series",
    "chern_relations_check",
    "tangent_vanishing_check",
]

QUOTIENT_BUNDLE = "quotient_bundle"
TANGENT_MODULI = "tangent_moduli"


@dataclass(frozen=True)
class GradedClass:
    """Graded components indexed by weighted degree 0..max_degree."""

    label: str
    components: Tuple[Polynomial, ...]

    @property
    def max_degree(self) -> int:
        return len(self.components) - 1

    def component(self, weight: int) -> Polynomial:
        if not 0 <= weight <= self.max_degree:
            raise ValueError(
                f"component of weight {weight} beyond truncation {self.max_degree}"
            )
        return self.components[weight]

    def total(self) -> Polynomial:
        result = ZERO
        for c in self.components:
            result = result + c
        return result


def _graded(p: Polynomial, order: int) -> PowerSeries:
    """p as a series in t whose t^w coefficient is its weight-w component."""
    return PowerSeries([p.homogeneous_component(w) for w in range(order + 1)])


def quotient_chern(max_weight: int) -> GradedClass:
    """Total Chern class of the pulled-back quotient bundle, graded.

    The exponent is assembled from the two beta-free families
    alpha beta^m / (2m+1) and 2 gamma beta^(m-1) / (2m+1), so no division
    by beta ever happens.
    """
    if max_weight < 0:
        raise ValueError("truncation weight must be non-negative")
    x = ALPHA
    for m in range(1, (max_weight - 1) // 2 + 1):
        x = x + (ALPHA * BETA**m + 2 * GAMMA * BETA ** (m - 1)) / (2 * m + 1)
    minus_beta = _graded(-BETA, max_weight)
    total = series_binomial(minus_beta, Fraction(-1, 2)) * series_exp(
        _graded(x, max_weight)
    )
    return GradedClass(QUOTIENT_BUNDLE, total.coefficients)


def tangent_chern(genus: int, max_weight: int) -> GradedClass:
    """Total Chern class of the tangent bundle of the genus-g moduli space.

    Expanded as (1-beta)^g * exp(-4 gamma / (1-beta)) * c(Q)^2 with the
    exponential handled as sum_k (-4 gamma)^k (1-beta)^(-k) / k!; gamma has
    weight 3, so the k-sum stops at max_weight // 3 and no rational
    function arithmetic is needed.
    """
    if genus < 2:
        raise ValueError("the tangent class needs genus at least 2")
    if max_weight < 0:
        raise ValueError("truncation weight must be non-negative")
    minus_beta = _graded(-BETA, max_weight)
    exp_part = PowerSeries([ONE], order=max_weight)
    for k in range(1, max_weight // 3 + 1):
        gamma_term = _graded((-4 * GAMMA) ** k / factorial(k), max_weight)
        exp_part = exp_part + gamma_term * series_binomial(minus_beta, -k)
    q = PowerSeries(quotient_chern(max_weight).components)
    total = series_binomial(minus_beta, genus) * exp_part * q * q
    return GradedClass(TANGENT_MODULI, total.coefficients)


def chern_matches_series(genus: int) -> bool:
    """Compare c_r(Q) with the t^r series coefficient for all r <= g+2.

    The two sides are independent transcriptions of the closed form that
    share only the truncated series arithmetic; `relations-dual-path` and
    `functional-equation` certify that arithmetic without it.
    """
    graded = quotient_chern(genus + 2)
    series = generating_series(genus + 2)
    return all(
        graded.component(r) == series.coefficient(r) for r in range(genus + 3)
    )


def chern_relations_check(genus: int, gb: GroebnerBasis) -> bool:
    """c_g, c_{g+1}, c_{g+2} of the quotient bundle generate the ideal.

    Checks membership (zero normal form) and two-sided ideal equality
    against the relation triple.
    """
    from .relations import relations_by_recursion

    graded = quotient_chern(genus + 2)
    classes = [graded.component(r) for r in (genus, genus + 1, genus + 2)]
    if any(gb.normal_form(c) for c in classes):
        return False
    triple = relations_by_recursion(genus)
    return ideal_equal(classes, triple.polynomials(), basis2=gb)


def tangent_vanishing_check(genus: int, gb: GroebnerBasis) -> bool:
    """Tangent Chern classes above weighted degree 2g-2 vanish mod the ideal.

    Checks every component with weighted degree in (2g-2, 3g-3].
    """
    top = 3 * genus - 3
    graded = tangent_chern(genus, top)
    return all(
        not gb.normal_form(graded.component(w))
        for w in range(2 * genus - 1, top + 1)
    )
