"""Truncated formal power series in t with polynomial coefficients.

A series is a plain tuple of `Polynomial` coefficients: its k-th entry is
the coefficient of t^k, and its truncation order is its length minus one.

The centrepiece is `generating_series`: a single series whose r-th Taylor
derivative at 0 is the first relation generator of genus r, so one series
produces the relation ideals of every genus simultaneously.  It satisfies
the first-order differential equation checked by
`functional_equation_residual`, and its t^k coefficient is weighted
homogeneous of weighted degree k.

The product of two series truncates to the smaller of the two orders;
requesting a derivative beyond the truncation order is an error, never a
silent zero, and so is an empty series.

Every coefficient of a product, an exponential, a binomial series or the
residual is one integer sum of products, `_sum_of_products`: each input
coefficient is read once as its `ring.integer_form`, the products of
numerators accumulate per monomial key over one common denominator, and
each surviving output term is one `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Callable, Iterable, Tuple, Union

from .ring import ALPHA, BETA, GAMMA, ONE, ZERO, Polynomial
from .ring import IntegerForm, integer_form, key_mono

__all__ = [
    "series_exp",
    "series_binomial",
    "generating_series",
    "taylor_derivative",
    "functional_equation_residual",
]


def _sum_of_products(
    products: Iterable[Tuple[int, IntegerForm, IntegerForm]], den: int = 1
) -> Polynomial:
    """sum w p q / den over the (w, p, q) products, for integers w and den.

    Each product of numerators accumulates under the sum of the keys, over
    the lcm D of d_p d_q; the weight w D / (d_p d_q) is folded into the left
    numerators.  Each surviving output term is one Fraction over D den.
    """
    products = [(w, p, q) for w, p, q in products if w and p[1] and q[1]]
    common = lcm(*(dp * dq for _, (dp, _), (dq, _) in products))
    acc: dict = {}
    get = acc.get
    for w, (dp, left), (dq, right) in products:
        scale = w * common // (dp * dq)
        for k1, n1 in left:
            n1 *= scale
            for k2, n2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + n1 * n2
    den *= common
    return Polynomial._raw({key_mono(k): Fraction(n, den) for k, n in acc.items() if n})


_ONE_FORM, _ZERO_FORM = integer_form(ONE), integer_form(ZERO)
# the factors of the four products in functional_equation_residual
_EQUATION = tuple(map(integer_form, (ONE, ALPHA, BETA, GAMMA)))


def _product(
    p: Tuple[Polynomial, ...], q: Tuple[Polynomial, ...]
) -> Tuple[Polynomial, ...]:
    """p q, truncated at the shorter of the two orders."""
    n = min(len(p), len(q))
    p = [integer_form(c) for c in p[:n]]
    q = [integer_form(c) for c in q[:n]]
    return tuple(
        _sum_of_products((1, p[i], q[k - i]) for i in range(k + 1)) for k in range(n)
    )


def series_exp(s: Tuple[Polynomial, ...]) -> Tuple[Polynomial, ...]:
    """exp(s) = sum s^k / k!, for s with zero constant coefficient.

    E = exp(s) solves E' = s' E with E_0 = 1, so
    k E_k = sum_{j=1..k} j s_j E_(k-j): one `_sum_of_products` per
    coefficient, and one Fraction per output term.
    """
    if not s or s[0]:
        raise ValueError("series exponential needs a zero constant coefficient")
    return _solve(s, lambda j, k: j)


def series_binomial(
    u: Tuple[Polynomial, ...], exponent: Union[int, Fraction]
) -> Tuple[Polynomial, ...]:
    """(1 + u)^exponent for u with zero constant coefficient.

    B = (1 + u)^e solves (1 + u) B' = e u' B with B_0 = 1, so
    k B_k = sum_{j=1..k} (e j - (k - j)) u_j B_(k-j); with e = r/d that is
    one `_sum_of_products` with integer weights (r + d) j - k d over k d.
    """
    if not u or u[0]:
        raise ValueError("binomial series needs a zero constant coefficient")
    e = Fraction(exponent)
    r, d = e.numerator, e.denominator
    return _solve(u, lambda j, k: (r + d) * j - k * d, d)


def _solve(
    s: Tuple[Polynomial, ...], weight: Callable[[int, int], int], den: int = 1
) -> Tuple[Polynomial, ...]:
    """F with F_0 = 1 and k den F_k = sum_{j=1..k} weight(j, k) s_j F_(k-j)."""
    forms = [integer_form(c) for c in s]
    coeffs, solved = [ONE], [_ONE_FORM]
    for k in range(1, len(s)):
        products = ((weight(j, k), forms[j], solved[k - j]) for j in range(1, k + 1))
        coeffs.append(_sum_of_products(products, k * den))
        solved.append(integer_form(coeffs[-1]))
    return tuple(coeffs)


def generating_series(order: int) -> Tuple[Polynomial, ...]:
    """The generating series of the relation ideals, truncated at `order`.

    It is the product of (1 - beta t^2)^(-1/2) with the exponential of

        alpha t + sum_{m>=1} (alpha beta^m + 2 gamma beta^(m-1)) t^(2m+1) / (2m+1).

    The exponent is assembled from two beta-free families so that no
    division by beta is ever performed; every coefficient is a genuine
    polynomial, weighted homogeneous of weighted degree equal to its
    t-exponent.
    """
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    exponent = [ZERO] * (order + 1)
    if order >= 1:
        exponent[1] = ALPHA
    m = 1
    while 2 * m + 1 <= order:
        exponent[2 * m + 1] = (ALPHA * BETA**m + 2 * GAMMA * BETA ** (m - 1)) / (
            2 * m + 1
        )
        m += 1
    u = ((ZERO, ZERO, -BETA) + (ZERO,) * order)[: order + 1]
    return _product(series_binomial(u, Fraction(-1, 2)), series_exp(tuple(exponent)))


def taylor_derivative(s: Tuple[Polynomial, ...], r: int) -> Polynomial:
    """r! times the t^r coefficient: the r-th derivative at t = 0."""
    if r < 0:
        raise ValueError("derivative order must be non-negative")
    if r >= len(s):
        raise ValueError(
            f"derivative of order {r} needs the series beyond its truncation "
            f"order {len(s) - 1}"
        )
    return factorial(r) * s[r]


def functional_equation_residual(s: Tuple[Polynomial, ...]) -> Tuple[Polynomial, ...]:
    """(1 - beta t^2) s'(t) - (alpha + beta t + 2 gamma t^2) s(t).

    Zero through order N-1 exactly when s solves the differential equation
    of the generating series; the result is truncated at order N-1.  Its
    t^k coefficient is (k+1) s_(k+1) - alpha s_k - k beta s_(k-1)
    - 2 gamma s_(k-2), one `_sum_of_products`.
    """
    if len(s) < 2:
        raise ValueError("residual needs a series of order at least 1")
    c = [_ZERO_FORM, _ZERO_FORM] + [integer_form(x) for x in s]
    return tuple(
        _sum_of_products(
            zip((k + 1, -1, -k, -2), _EQUATION, (c[k + 3], c[k + 2], c[k + 1], c[k]))
        )
        for k in range(len(s) - 1)
    )
