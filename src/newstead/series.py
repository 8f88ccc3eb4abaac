"""Truncated formal power series in t with polynomial coefficients.

The centrepiece is `generating_series`: a single series whose r-th Taylor
derivative at 0 is the first relation generator of genus r, so one series
produces the relation ideals of every genus simultaneously.  It satisfies
the first-order differential equation checked by
`functional_equation_residual`, and its t^k coefficient is weighted
homogeneous of weighted degree k.

Operations on two series truncate to the smaller of the two orders;
requesting a coefficient beyond the truncation order is an error, never a
silent zero.

Every coefficient of a product, an exponential, a binomial series or the
residual is one integer sum of products, `_sum_of_products`: each input
coefficient is read once as its `ring.integer_form`, the products of
numerators accumulate per monomial key over one common denominator, and
each surviving output term is one `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Callable, Iterable, Optional, Tuple, Union

from .ring import ALPHA, BETA, GAMMA, ONE, ZERO, Polynomial
from .ring import IntegerForm, integer_form, key_mono

__all__ = [
    "PowerSeries",
    "series_exp",
    "series_binomial",
    "generating_series",
    "taylor_derivative",
    "functional_equation_residual",
]


def _coerce_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value) if value else ZERO
    raise TypeError(f"cannot use {value!r} as a series coefficient")


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


class PowerSeries:
    """Polynomial coefficients indexed by the t-exponent 0..order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable = (), order: Optional[int] = None):
        coeffs = [_coerce_poly(c) for c in coefficients]
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be non-negative")
            del coeffs[order + 1 :]
            coeffs.extend([ZERO] * (order + 1 - len(coeffs)))
        elif not coeffs:
            raise ValueError("a series needs coefficients or an explicit order")
        self._coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> Tuple[Polynomial, ...]:
        return self._coeffs

    def coefficient(self, k: int) -> Polynomial:
        if not 0 <= k <= self.order:
            raise ValueError(
                f"coefficient of t^{k} requested beyond truncation order {self.order}"
            )
        return self._coeffs[k]

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def derivative(self) -> "PowerSeries":
        """Formal d/dt; the result is known one order less far."""
        if self.order < 1:
            raise ValueError("cannot differentiate a series truncated at order 0")
        return PowerSeries(
            [(k + 1) * self._coeffs[k + 1] for k in range(self.order)]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self._coeffs])

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(
            [self._coeffs[k] + other._coeffs[k] for k in range(n + 1)]
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(
            [self._coeffs[k] - other._coeffs[k] for k in range(n + 1)]
        )

    def __mul__(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            p = [integer_form(c) for c in self._coeffs[: n + 1]]
            q = [integer_form(c) for c in other._coeffs[: n + 1]]
            return PowerSeries(
                [
                    _sum_of_products((1, p[i], q[k - i]) for i in range(k + 1))
                    for k in range(n + 1)
                ]
            )
        if isinstance(other, (int, Fraction, Polynomial)):
            return PowerSeries([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "; ".join(f"t^{k}: {c}" for k, c in enumerate(self._coeffs))

    def __repr__(self) -> str:
        return f"PowerSeries(order={self.order}, {self})"


def series_exp(s: PowerSeries) -> PowerSeries:
    """exp(s) = sum s^k / k!, for s with zero constant coefficient.

    E = exp(s) solves E' = s' E with E_0 = 1, so
    k E_k = sum_{j=1..k} j s_j E_(k-j): one `_sum_of_products` per
    coefficient, and one Fraction per output term.
    """
    if s.coefficient(0):
        raise ValueError("series exponential needs a zero constant coefficient")
    return _solve(s, lambda j, k: j)


def series_binomial(u: PowerSeries, exponent: Union[int, Fraction]) -> PowerSeries:
    """(1 + u)^exponent for u with zero constant coefficient.

    B = (1 + u)^e solves (1 + u) B' = e u' B with B_0 = 1, so
    k B_k = sum_{j=1..k} (e j - (k - j)) u_j B_(k-j); with e = r/d that is
    one `_sum_of_products` with integer weights (r + d) j - k d over k d.
    """
    if u.coefficient(0):
        raise ValueError("binomial series needs a zero constant coefficient")
    e = Fraction(exponent)
    r, d = e.numerator, e.denominator
    return _solve(u, lambda j, k: (r + d) * j - k * d, d)


def _solve(
    s: PowerSeries, weight: Callable[[int, int], int], den: int = 1
) -> PowerSeries:
    """F with F_0 = 1 and k den F_k = sum_{j=1..k} weight(j, k) s_j F_(k-j)."""
    forms = [integer_form(c) for c in s.coefficients]
    coeffs, solved = [ONE], [_ONE_FORM]
    for k in range(1, s.order + 1):
        products = ((weight(j, k), forms[j], solved[k - j]) for j in range(1, k + 1))
        coeffs.append(_sum_of_products(products, k * den))
        solved.append(integer_form(coeffs[-1]))
    return PowerSeries(coeffs)


def generating_series(order: int) -> PowerSeries:
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
    u = PowerSeries([ZERO, ZERO, -BETA], order=order)
    return series_binomial(u, Fraction(-1, 2)) * series_exp(PowerSeries(exponent))


def taylor_derivative(s: PowerSeries, r: int) -> Polynomial:
    """r! times the t^r coefficient: the r-th derivative at t = 0."""
    if r < 0:
        raise ValueError("derivative order must be non-negative")
    if r > s.order:
        raise ValueError(
            f"derivative of order {r} needs the series beyond its truncation "
            f"order {s.order}"
        )
    return factorial(r) * s.coefficient(r)


def functional_equation_residual(s: PowerSeries) -> PowerSeries:
    """(1 - beta t^2) s'(t) - (alpha + beta t + 2 gamma t^2) s(t).

    Zero through order N-1 exactly when s solves the differential equation
    of the generating series; the result is truncated at order N-1.  Its
    t^k coefficient is (k+1) s_(k+1) - alpha s_k - k beta s_(k-1)
    - 2 gamma s_(k-2), one `_sum_of_products`.
    """
    if s.order < 1:
        raise ValueError("residual needs a series of order at least 1")
    c = [_ZERO_FORM, _ZERO_FORM] + [integer_form(x) for x in s.coefficients]
    return PowerSeries(
        [
            _sum_of_products(
                zip((k + 1, -1, -k, -2), _EQUATION, (c[k + 3], c[k + 2], c[k + 1], c[k]))
            )
            for k in range(s.order)
        ]
    )
