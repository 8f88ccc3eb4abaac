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

The closed forms, with x = alpha + sum_{m>=1} (alpha beta^m + 2 gamma
beta^(m-1)) / (2m+1):

    c(Q)  = (1 - beta)^(-1/2) * exp(x)
    c(T)  = (1 - beta)^g * exp(-4 gamma / (1 - beta)) * c(Q)^2
          = (1 - beta)^(g-1) * exp(2x - 4 gamma sum_{j>=0} beta^j)

where the graded component of weighted degree w is the w-th Chern class.
The second form of c(T) follows from c(Q)^2 = (1 - beta)^(-1) exp(2x) and
1/(1 - beta) = sum_j beta^j; it is what `tangent_chern` expands, one
binomial series times one exponential.

Above weighted degree 2g-2 every component of c(T) lies in the relation
ideal, i.e. vanishes in the cohomology ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .groebner import GroebnerBasis, ideal_equal
from .ring import ALPHA, BETA, GAMMA, ZERO, Polynomial
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


def _quotient_exponent(max_weight: int) -> Polynomial:
    """The exponent x of c(Q), through weight max_weight.

    It is assembled from the two beta-free families alpha beta^m / (2m+1)
    and 2 gamma beta^(m-1) / (2m+1), so no division by beta ever happens.
    """
    x = ALPHA
    for m in range(1, (max_weight - 1) // 2 + 1):
        x = x + (ALPHA * BETA**m + 2 * GAMMA * BETA ** (m - 1)) / (2 * m + 1)
    return x


def _tangent_exponent(max_weight: int) -> Polynomial:
    """2x - 4 gamma sum_{j>=0} beta^j, through weight max_weight.

    gamma beta^j has weight 2j+3, so the geometric sum stops at
    j = (max_weight-3)//2.
    """
    y = 2 * _quotient_exponent(max_weight)
    for j in range((max_weight - 3) // 2 + 1):
        y = y - 4 * GAMMA * BETA**j
    return y


def quotient_chern(max_weight: int) -> GradedClass:
    """Total Chern class of the pulled-back quotient bundle, graded."""
    if max_weight < 0:
        raise ValueError("truncation weight must be non-negative")
    minus_beta = _graded(-BETA, max_weight)
    total = series_binomial(minus_beta, Fraction(-1, 2)) * series_exp(
        _graded(_quotient_exponent(max_weight), max_weight)
    )
    return GradedClass(QUOTIENT_BUNDLE, total.coefficients)


def tangent_chern(genus: int, max_weight: int) -> GradedClass:
    """Total Chern class of the tangent bundle of the genus-g moduli space.

    Expanded as (1-beta)^(g-1) * exp(2x - 4 gamma sum_j beta^j), the closed
    form (1-beta)^g * exp(-4 gamma / (1-beta)) * c(Q)^2 rewritten with
    c(Q)^2 = (1-beta)^(-1) exp(2x): one binomial series times one
    exponential, and no rational function arithmetic.
    """
    if genus < 2:
        raise ValueError("the tangent class needs genus at least 2")
    if max_weight < 0:
        raise ValueError("truncation weight must be non-negative")
    total = series_binomial(_graded(-BETA, max_weight), genus - 1) * series_exp(
        _graded(_tangent_exponent(max_weight), max_weight)
    )
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

    Ideal equality with the relation triple: `ideal_equal` proves it by an
    exact triangular identity, or else reduces each class modulo `gb` (the
    membership direction) and the triple modulo a basis of the classes.
    """
    from .relations import relations_by_recursion

    graded = quotient_chern(genus + 2)
    classes = [graded.component(r) for r in (genus, genus + 1, genus + 2)]
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
