"""Machine checks of every structural claim, over a range of genera.

Each row of `CHECKS` is one per-genus check: its name, the genera it applies
to, a predicate on the `Context` built once per genus, and a fixed detail.
Rows run in table order, genera in increasing order; after them come the
cross-genus inclusions c * I_g inside I_(g+1) and the functional equation
of the generating series.  One walk of the recursion yields every triple,
and one generating series serves every genus and the functional equation.
Each genus's basis seeds the build of the next one's, which the
`initial-ideal` row certifies like any other.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, List, NamedTuple, Optional, Tuple

from .betti import betti_cross_check, invariant_dimensions, newstead_betti
from .cache import relation_basis_cached
from .chern import (
    GradedClass,
    chern_matches_series,
    chern_relations_check,
    quotient_chern,
    tangent_chern,
    tangent_vanishing_check,
)
from .groebner import (
    GroebnerBasis,
    _counts_by_weight,
    complete_intersection_hilbert,
    expected_standard_count,
    ideal_equal,
    is_relation_basis,
    pairing_ratio,
    standard_monomials,
)
from .relations import (
    RelationTriple,
    initial_terms,
    iter_recursion_triples,
    relations_by_definition,
)
from .ring import GAMMA, Monomial, Polynomial
from .series import functional_equation_residual, generating_series, taylor_derivative

__all__ = ["CHECKS", "Check", "Context", "Row", "run_verify"]

# (scope, name, ok, detail)
Check = Tuple[str, str, bool, str]


class Context(NamedTuple):
    """What the checks of one genus share, computed once."""

    g: int
    phi: Tuple[Polynomial, ...]  # the run's one series, through t^(g+2) or beyond
    by_rec: RelationTriple
    by_def: RelationTriple
    gb: GroebnerBasis
    sm: Tuple[Monomial, ...]  # standard monomials, by (weight, grevlex)
    counts: Tuple[int, ...]  # Hilbert series from the standard monomials
    quotient: GradedClass  # c(Q) through weight g+2, read by both Chern rows


def _context(
    by_rec: RelationTriple,
    phi: Tuple[Polynomial, ...],
    cache_dir: Optional[str],
    previous: Optional[GroebnerBasis],
) -> Context:
    g = by_rec.genus
    gb = relation_basis_cached(g, cache_dir, previous=previous, triple=by_rec)
    sm = standard_monomials(gb)
    by_def = relations_by_definition(g, phi)
    counts = _counts_by_weight(sm)
    return Context(g, phi, by_rec, by_def, gb, sm, counts, quotient_chern(g + 2))


def _ideal_equal_series(x: Context) -> bool:
    derivatives = [taylor_derivative(x.phi, r) for r in (x.g, x.g + 1, x.g + 2)]
    return ideal_equal(x.by_rec.polynomials(), derivatives)


def _tails_standard(x: Context) -> bool:
    """Every term of each relation but its lead is a standard monomial."""
    standard = set(x.sm)
    return all(
        standard >= p.terms.keys() - {p.leading_monomial()}
        for p in x.by_rec.polynomials()
        if p
    )


def _betti_monotone(x: Context) -> bool:
    values = newstead_betti(x.g)
    middle = (3 * x.g - 3) // 2
    return all(values[s] <= values[s + 1] for s in range(min(middle, len(values) - 1)))


class Row(NamedTuple):
    name: str
    genera: Tuple[int, Optional[int]]  # first and last genus; None: unbounded
    predicate: Callable[[Context], bool]
    detail: str = ""


ALL, FROM_2, ONLY_2 = (1, None), (2, None), (2, 2)

CHECKS: Tuple[Row, ...] = (
    Row("relations-dual-path", ALL, lambda x: x.by_rec == x.by_def),
    Row("initial-terms", ALL, lambda x: initial_terms(x.by_rec) == (
        Monomial(x.g, 0, 0), Monomial(x.g - 1, 1, 0), Monomial(x.g - 1, 0, 1))),
    Row("weighted-degrees", ALL,
        lambda x: x.by_rec.weighted_degrees() == (x.g, x.g + 1, x.g + 2)),
    Row("monic-leads", ALL,
        lambda x: all(p.leading_coefficient() == 1 for p in x.by_rec.polynomials())),
    Row("initial-ideal", ALL, lambda x: is_relation_basis(x.gb, x.by_rec)),
    Row("standard-monomial-count", ALL,
        lambda x: len(x.sm) == expected_standard_count(x.g)),
    Row("hilbert-closed-form", ALL,
        lambda x: x.counts == complete_intersection_hilbert(x.g)),
    Row("hilbert-palindromic", ALL, lambda x: x.counts == x.counts[::-1]),
    Row("hilbert-top", ALL,
        lambda x: len(x.counts) == 3 * x.g - 2 and x.counts[-1] == 1),
    Row("socle-unique", ALL,
        lambda x: [m for m in x.sm if m.weight == 3 * x.g - 3]
        == [Monomial(0, 0, x.g - 1)]),
    Row("uniqueness-support", ALL, _tails_standard),
    Row("ideal-equal-series", ALL, _ideal_equal_series),
    Row("chern-matches-series", ALL, lambda x: chern_matches_series(x.quotient, x.phi)),
    Row("chern-relations", ALL, lambda x: chern_relations_check(x.quotient, x.by_rec)),
    Row("invariant-dimensions", ALL, lambda x: invariant_dimensions(x.g) == x.counts),
    Row("tangent-vanishing", FROM_2, lambda x: tangent_vanishing_check(x.gb)),
    Row("tangent-negative-control", FROM_2,
        lambda x: bool(x.gb.normal_form(tangent_chern(x.g, 1).component(1))),
        "c_1 must survive in the quotient"),
    Row("betti-cross-check", FROM_2, lambda x: betti_cross_check(x.g)),
    Row("pairing-socle", FROM_2,
        lambda x: pairing_ratio(Monomial(0, 0, x.g - 1), x.gb) == 1),
    Row("betti-monotone", FROM_2, _betti_monotone, "up to the middle degree"),
    Row("pairing-spot-values", ONLY_2,
        lambda x: pairing_ratio(Monomial(1, 1, 0), x.gb) == -1
        and pairing_ratio(Monomial(3, 0, 0), x.gb) == 1),
)


def run_verify(
    lo: int, hi: int, cache_dir: Optional[str] = None
) -> Tuple[List[Check], bool]:
    """Run every check for each genus in [lo, hi]; results ordered by genus."""
    checks: List[Check] = []
    inclusions: List[Check] = []
    previous: Optional[RelationTriple] = None
    basis: Optional[GroebnerBasis] = None
    phi = generating_series(max(hi + 2, 25))
    for triple in islice(iter_recursion_triples(hi), lo - 1, None):
        x = _context(triple, phi, cache_dir, basis)
        g = x.g
        for name, (first, last), predicate, detail in CHECKS:
            if first <= g and (last is None or g <= last):
                checks.append((f"g={g}", name, bool(predicate(x)), detail))
        if previous is not None:
            included = all(x.gb.contains(GAMMA * p) for p in previous.polynomials())
            inclusions.append((f"g={g - 1}->g={g}", "gamma-inclusion", included, ""))
        previous, basis = x.by_rec, x.gb
    checks += inclusions
    residual = functional_equation_residual(phi[:26])
    checks.append(("global", "functional-equation", not any(residual), "order 25"))
    return checks, all(ok for _, _, ok, _ in checks)
