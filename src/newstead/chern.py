"""Weighted-graded expansions of the two closed-form total Chern classes.

Two bundles matter here: the rank g-1 quotient bundle pulled back from the
Grassmannian embedding of the moduli space, and the tangent bundle of the
moduli space itself.  Their closed forms, with x = alpha + sum_{m>=1}
(alpha beta^m + 2 gamma beta^(m-1)) / (2m+1):

    c(Q)  = (1 - beta)^(-1/2) * exp(x)
    c(T)  = (1 - beta)^g * exp(-4 gamma / (1 - beta)) * c(Q)^2
          = (1 - beta)^(g-1) * exp(2x - 4 gamma sum_{j>=0} beta^j)

where the graded component of weighted degree w is the w-th Chern class;
above weight 2g-2 those of c(T) vanish in the cohomology ring.  Both
exponents are linear in alpha and gamma: x = alpha U/2 + gamma V_Q and
2x - 4 gamma sum_j beta^j = alpha U + gamma V, with U = sum_m 2 beta^m/(2m+1),
V_Q = sum_j 2 beta^j/(2j+3) and V = 2 V_Q - 4 sum_j beta^j.  So each class
is sum_{i,k} alpha^i gamma^k P U^i V^k / (i! k!), P = (1-beta)^(-1/2) or
(1-beta)^(g-1), and `_expand` builds it from integer series in beta alone,
sharing no arithmetic with the generating series of `series.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul
from typing import Iterable, List, Tuple

from .groebner import GroebnerBasis, _monomials_of_weight, ideal_equal, pairing_ratio
from .relations import RelationTriple
from .ring import Monomial, Polynomial, integer_form, mono_key

__all__ = [
    "GradedClass", "quotient_chern", "tangent_chern", "chern_matches_series",
    "chern_relations_check", "tangent_vanishing_check",
]


@dataclass(frozen=True)
class GradedClass:
    """Graded components indexed by weighted degree 0..max_degree."""

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


def _expand(max_weight, pre, pre_den, u, v, den) -> GradedClass:
    """sum_{i,k} alpha^i gamma^k P U^i V^k / (i! k!) through max_weight.

    P, U and V are lists of integer numerators of series in beta, over
    pre_den, den and den.  W_k = W_(k-1) V and P_(i,k) = P_(i-1,k) U are
    products cut at the beta-degree j where alpha^i beta^j gamma^k still has
    weight at most max_weight.  Block (i, k) has the denominator
    pre_den den^(i+k) i! k!, and each output term is one Fraction.
    """
    def times(p: List[int], q: List[int], top: int) -> List[int]:  # p q to beta^top
        return [
            sum(map(mul, p[max(0, j - len(q) + 1) : j + 1], reversed(q[: j + 1])))
            for j in range(top + 1)
        ]

    components = [{} for _ in range(max_weight + 1)]
    for k in range(max_weight // 3 + 1):
        p = w = times(w, v, (max_weight - 3 * k) // 2) if k else pre
        for i in range(max_weight - 3 * k + 1):
            p = times(p, u, (max_weight - i - 3 * k) // 2) if i else p
            scale = pre_den * den ** (i + k) * factorial(i) * factorial(k)
            for j, n in enumerate(p):
                if n:
                    components[i + 2 * j + 3 * k][Monomial(i, j, k)] = Fraction(n, scale)
    return GradedClass(tuple(Polynomial._raw(c) for c in components))


def quotient_chern(max_weight: int) -> GradedClass:
    """Total Chern class of the pulled-back quotient bundle, graded."""
    if max_weight < 0:
        raise ValueError("truncation weight must be non-negative")
    top, den = max_weight // 2, lcm(*range(1, max_weight + 4, 2))
    # (1-beta)^(-1/2) = sum_j C(2j, j) beta^j / 4^j
    pre = [comb(2 * j, j) * 4 ** (top - j) for j in range(top + 1)]
    u = [den // (2 * m + 1) for m in range(top + 1)]
    v = [2 * den // (2 * j + 3) for j in range(top + 1)]
    return _expand(max_weight, pre, 4**top, u, v, den)


def tangent_chern(genus: int, max_weight: int) -> GradedClass:
    """Total Chern class of the tangent bundle of the genus-g moduli space.

    Expanded as (1-beta)^(g-1) * exp(alpha U + gamma V), one exponential.
    """
    if genus < 2:
        raise ValueError("the tangent class needs genus at least 2")
    if max_weight < 0:
        raise ValueError("truncation weight must be non-negative")
    top, den = max_weight // 2, lcm(*range(1, max_weight + 4, 2))
    pre = [(-1) ** j * comb(genus - 1, j) for j in range(top + 1)]
    u = [2 * den // (2 * m + 1) for m in range(top + 1)]
    v = [4 * den // (2 * j + 3) - 4 * den for j in range(top + 1)]
    return _expand(max_weight, pre, 1, u, v, den)


def chern_matches_series(graded: GradedClass, series: Tuple[Polynomial, ...]) -> bool:
    """Each component c_r of `graded`, through its truncation, equals the
    t^r coefficient of `series`, which must reach that order.

    `verify` passes its genus's c(Q) through weight g+2 and the series its
    other rows read.  The two sides share no arithmetic: `quotient_chern`
    multiplies integer series in beta alone, and `generating_series`
    truncated series in t with polynomial coefficients, which
    `relations-dual-path` and `functional-equation` certify without it.
    """
    n = len(graded.components)
    if len(series) < n:
        raise ValueError(f"series of order {len(series) - 1} stops before t^{n - 1}")
    return graded.components == series[:n]


def chern_relations_check(graded: GradedClass, triple: RelationTriple) -> bool:
    """c_g, c_{g+1}, c_{g+2} of the class `graded` generate the ideal.

    Ideal equality with the genus-g `triple`; `graded.component` raises if
    the class stops short of weight g+2.  Both lists have weights g, g+1,
    g+2, so `ideal_equal` decides it weight by weight without a basis: each
    class must lie in the span of the multiples m*f of the relations that
    have its weight, and each relation in the span of the classes'
    multiples of its weight, which holds iff the ideals are equal.
    """
    g = triple.genus
    classes = [graded.component(r) for r in (g, g + 1, g + 2)]
    return ideal_equal(classes, triple.polynomials())


def _all_vanish(xs: Iterable[Polynomial], gb: GroebnerBasis) -> bool:
    """Each weighted homogeneous x in xs is zero modulo the genus-g ideal.

    The genus g is the tag of `gb`.  By duality: L(x s) = 0 for every
    monomial s of weight 3g-3 minus that of x, with L = `pairing_ratio`,
    summed in integers over the `integer_form` of L and of x, and L(m s)
    looked up by key(m) + key(s).
    """
    top = 3 * gb.genus - 3
    ratios = Polynomial({m: pairing_ratio(m, gb) for m in _monomials_of_weight(top)})
    socle = dict(integer_form(ratios)[1])  # zero ratios are absent
    for x in filter(None, xs):
        terms = integer_form(x)[1]
        for s in map(mono_key, _monomials_of_weight(top - x.weighted_degree())):
            if sum(n * socle.get(k + s, 0) for k, n in terms):
                return False
    return True


def tangent_vanishing_check(gb: GroebnerBasis) -> bool:
    """Tangent Chern classes above weighted degree 2g-2 vanish mod the ideal.

    The genus g is read off the tag of `gb`; an untagged basis raises
    `ValueError`.  Checks every component of weighted degree w in
    (2g-2, 3g-3] without division, through `pairing_ratio`.  The quotient
    R_g is a complete intersection (`hilbert-closed-form`), hence
    Gorenstein, and c^(g-1) spans its socle in weight 3g-3 (`socle-unique`);
    so the pairing R_w x R_(3g-3-w) -> Q through the socle coefficient is
    perfect, and a component is zero in R_g exactly when it pairs to zero
    with every monomial of weight 3g-3-w.  The row is sound only with those
    two rows, and speaks about I_g only because `initial-ideal` certifies
    `gb`; `verify` fails if any of them fails.  The class is built from the
    tag, not passed in: a `GradedClass` does not record its genus.
    """
    genus = gb.genus
    if genus is None:
        raise ValueError("the tangent check needs a genus-tagged basis")
    graded = tangent_chern(genus, 3 * genus - 3)
    return _all_vanish(graded.components[2 * genus - 1 :], gb)
