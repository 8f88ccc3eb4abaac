"""Relation ideal generators for every genus, built two independent ways.

For genus g the relation ideal of the invariant ring <alpha, beta, gamma>
is generated by three weighted homogeneous polynomials of weighted degrees
g, g+1, g+2, monic in their leading monomials a^g, a^(g-1) b, a^(g-1) c.

`relations_by_recursion` iterates the first-order recursion

    f1' = alpha f1 + g^2 f2,   f2' = beta f1 + (2g/(g+1)) f3,   f3' = gamma f1

from the base triple (alpha, beta, gamma).  `relations_by_definition`
extracts the same polynomials from Taylor derivatives of the generating
series.  The two constructions agree term for term, which `verify` and the
test-suite compare with `==` as a double-entry check against transcription
slips in either formula.  `iter_recursion_triples` yields the whole sequence
from genus 1, one recursion step per genus, for callers that need many.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .ring import ALPHA, BETA, GAMMA, Monomial, Polynomial
from .series import generating_series, taylor_derivative

__all__ = [
    "RelationTriple",
    "relations_by_recursion",
    "relations_by_definition",
    "iter_recursion_triples",
    "initial_terms",
]

@dataclass(frozen=True)
class RelationTriple:
    """The three relation generators for one genus, by either construction."""

    genus: int
    f1: Polynomial
    f2: Polynomial
    f3: Polynomial

    def polynomials(self) -> Tuple[Polynomial, Polynomial, Polynomial]:
        return (self.f1, self.f2, self.f3)

    def weighted_degrees(self) -> Tuple[Optional[int], Optional[int], Optional[int]]:
        return tuple(p.weighted_degree() for p in self.polynomials())


def iter_recursion_triples(max_genus: int) -> Iterator[RelationTriple]:
    """Yield the recursion-built triples for genus 1, 2, ..., max_genus."""
    if max_genus < 1:
        raise ValueError("genus must be at least 1")
    f1, f2, f3 = ALPHA, BETA, GAMMA
    for g in range(1, max_genus + 1):
        yield RelationTriple(g, f1, f2, f3)
        f1, f2, f3 = (
            ALPHA * f1 + g * g * f2,
            BETA * f1 + Fraction(2 * g, g + 1) * f3,
            GAMMA * f1,
        )


def relations_by_recursion(genus: int) -> RelationTriple:
    """Triple for one genus by iterating the recursion from (a, b, c)."""
    for triple in iter_recursion_triples(genus):
        pass
    return triple


def relations_by_definition(
    genus: int, series: Optional[Tuple[Polynomial, ...]] = None
) -> RelationTriple:
    """Triple extracted from Taylor derivatives of the generating series.

    With D_r the r-th derivative at 0:

        f1 = D_g
        f2 = (D_{g+1} - alpha D_g) / g^2
        f3 = (D_{g+2} - alpha D_{g+1} - (g+1)^2 beta D_g) / (2g(g+1))

    The series must be truncated at order g+2 or beyond; a default one of
    exactly that order is built when none is supplied.
    """
    if genus < 1:
        raise ValueError("genus must be at least 1")
    if series is None:
        series = generating_series(genus + 2)
    if len(series) < genus + 3:
        raise ValueError(
            f"series truncated at order {len(series) - 1} cannot produce the "
            f"genus {genus} triple (order {genus + 2} needed)"
        )
    d0 = taylor_derivative(series, genus)
    d1 = taylor_derivative(series, genus + 1)
    d2 = taylor_derivative(series, genus + 2)
    f1 = d0
    f2 = (d1 - ALPHA * d0) / (genus * genus)
    f3 = (d2 - ALPHA * d1 - (genus + 1) ** 2 * BETA * d0) / (2 * genus * (genus + 1))
    return RelationTriple(genus, f1, f2, f3)


def initial_terms(triple: RelationTriple) -> Tuple[Monomial, Monomial, Monomial]:
    """Leading monomials of the triple; (a^g, a^(g-1) b, a^(g-1) c)."""
    return tuple(p.leading_monomial() for p in triple.polynomials())
