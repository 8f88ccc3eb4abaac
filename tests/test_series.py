import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import newstead.series
from newstead.ring import ALPHA, BETA, GAMMA, ONE, ZERO, Monomial, Polynomial
from newstead.series import (
    PowerSeries,
    functional_equation_residual,
    generating_series,
    series_binomial,
    series_exp,
    taylor_derivative,
)

# hand-expanded low-order generating series coefficients, built from raw
# exponent dictionaries so no other pipeline is involved
PHI_COEFFS = [
    Polynomial({(0, 0, 0): 1}),
    Polynomial({(1, 0, 0): 1}),
    Polynomial({(2, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(1, 2)}),
    Polynomial(
        {
            (3, 0, 0): Fraction(1, 6),
            (1, 1, 0): Fraction(5, 6),
            (0, 0, 1): Fraction(2, 3),
        }
    ),
    Polynomial(
        {
            (4, 0, 0): Fraction(1, 24),
            (2, 1, 0): Fraction(7, 12),
            (0, 2, 0): Fraction(3, 8),
            (1, 0, 1): Fraction(2, 3),
        }
    ),
]


class TestPowerSeriesBasics:
    def test_truncation_alignment(self):
        s1 = PowerSeries([1, ALPHA], order=5)
        s2 = PowerSeries([1, BETA], order=3)
        assert (s1 + s2).order == 3

    def test_coefficient_bounds(self):
        s = PowerSeries([1, ALPHA])
        with pytest.raises(ValueError):
            s.coefficient(2)

    def test_mul_example(self):
        left = PowerSeries([1, ALPHA], order=3)
        right = PowerSeries([1, -ALPHA], order=3)
        product = left * right
        assert product.coefficient(0) == ONE
        assert product.coefficient(1) == ZERO
        assert product.coefficient(2) == -(ALPHA**2)
        assert product.coefficient(3) == ZERO

    def test_mul_unit(self):
        s = PowerSeries([1, ALPHA, BETA, GAMMA])
        assert s * PowerSeries([1], order=s.order) == s

    def test_mul_leading_factors_by_hand(self):
        left = PowerSeries([1, 0, BETA / 2], order=2)
        right = PowerSeries([1, ALPHA, ALPHA**2 / 2], order=2)
        product = left * right
        assert product.coefficient(0) == ONE
        assert product.coefficient(1) == ALPHA
        assert product.coefficient(2) == (ALPHA**2 + BETA) / 2

    def test_derivative(self):
        s = PowerSeries([BETA, ALPHA, GAMMA])
        d = s.derivative()
        assert d.order == 1
        assert d.coefficient(0) == ALPHA
        assert d.coefficient(1) == 2 * GAMMA


class TestExp:
    def test_exp_zero(self):
        s = PowerSeries([0], order=4)
        assert series_exp(s) == PowerSeries([1], order=4)

    def test_exp_scalar_times_t(self):
        s = PowerSeries([ZERO, ALPHA], order=4)
        e = series_exp(s)
        from math import factorial

        for k in range(5):
            assert e.coefficient(k) == ALPHA**k / factorial(k)

    def test_exp_with_cubic_term(self):
        cubic = (ALPHA * BETA + 2 * GAMMA) / 3
        s = PowerSeries([ZERO, ALPHA, ZERO, cubic], order=3)
        e = series_exp(s)
        assert e.coefficient(3) == ALPHA**3 / 6 + cubic

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            series_exp(PowerSeries([1, ALPHA]))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=2,
            max_size=4,
        ),
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=2,
            max_size=4,
        ),
    )
    def test_exp_additivity(self, c1, c2):
        n = 5
        s1 = PowerSeries([ZERO] + [q * BETA for q in c1], order=n)
        s2 = PowerSeries([ZERO] + [q * ALPHA for q in c2], order=n)
        assert series_exp(s1 + s2) == series_exp(s1) * series_exp(s2)


class TestBinomial:
    def test_inverse_sqrt_of_one_minus_beta_t2(self):
        u = PowerSeries([ZERO, ZERO, -BETA], order=5)
        s = series_binomial(u, Fraction(-1, 2))
        assert s.coefficient(0) == ONE
        assert s.coefficient(2) == BETA / 2
        assert s.coefficient(4) == Fraction(3, 8) * BETA**2
        assert s.coefficient(1) == ZERO
        assert s.coefficient(3) == ZERO

    def test_power_zero(self):
        u = PowerSeries([ZERO, ALPHA], order=4)
        assert series_binomial(u, 0) == PowerSeries([1], order=4)

    def test_power_one(self):
        u = PowerSeries([ZERO, ALPHA, BETA], order=4)
        one_plus = PowerSeries([1], order=4) + u
        assert series_binomial(u, 1) == one_plus

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            series_binomial(PowerSeries([1, ALPHA]), Fraction(1, 2))

    def test_square_of_inverse_sqrt(self):
        u = PowerSeries([ZERO, ALPHA, -BETA, GAMMA], order=7)
        s = series_binomial(u, Fraction(-1, 2))
        one_plus = PowerSeries([1], order=7) + u
        assert s * s * one_plus == PowerSeries([1], order=7)


class TestGeneratingSeries:
    def test_low_order_coefficients(self):
        phi = generating_series(4)
        for k, expected in enumerate(PHI_COEFFS):
            assert phi.coefficient(k) == expected

    def test_t_homogeneity(self):
        phi = generating_series(12)
        for k in range(13):
            coeff = phi.coefficient(k)
            assert coeff
            assert coeff.weighted_degree() == k

    def test_taylor_derivatives(self):
        phi = generating_series(5)
        assert taylor_derivative(phi, 0) == ONE
        assert taylor_derivative(phi, 1) == ALPHA
        assert taylor_derivative(phi, 3) == ALPHA**3 + 5 * ALPHA * BETA + 4 * GAMMA

    def test_derivative_beyond_order_rejected(self):
        phi = generating_series(4)
        with pytest.raises(ValueError):
            taylor_derivative(phi, 5)

    def test_order_zero(self):
        assert generating_series(0).coefficient(0) == ONE


class TestFunctionalEquation:
    def test_residual_vanishes(self):
        residual = functional_equation_residual(generating_series(12))
        assert residual.order == 11
        assert residual.is_zero()

    def test_residual_of_constant_one(self):
        one = PowerSeries([1], order=4)
        residual = functional_equation_residual(one)
        assert residual.coefficient(0) == -ALPHA
        assert residual.coefficient(1) == -BETA
        assert residual.coefficient(2) == -2 * GAMMA
        assert residual.coefficient(3) == ZERO

    def test_perturbation_detected(self):
        phi = generating_series(6)
        bumped = phi + PowerSeries([0, 0, 1], order=6)
        residual = functional_equation_residual(bumped)
        assert residual.coefficient(1) == Polynomial.constant(2)


# Oracles: the series arithmetic as it was before the integer kernel, one
# Fraction product and one Fraction sum per pair of terms, so they share no
# code with `_sum_of_products`.


def product_oracle(left, right):
    n = min(left.order, right.order)
    coeffs = [ZERO] * (n + 1)
    for i, ci in enumerate(left.coefficients[: n + 1]):
        if not ci:
            continue
        for j in range(n + 1 - i):
            cj = right.coefficients[j]
            if cj:
                coeffs[i + j] = coeffs[i + j] + ci * cj
    return PowerSeries(coeffs)


def scaled(s, q):
    return PowerSeries([c * q for c in s.coefficients])


def exp_oracle(s):
    """exp(s) = sum s^k / k!, term by term."""
    if s.coefficient(0):
        raise ValueError("series exponential needs a zero constant coefficient")
    n = s.order
    acc = PowerSeries([ONE], order=n)
    term = acc
    for k in range(1, n + 1):
        term = scaled(product_oracle(term, s), Fraction(1, k))
        if term.is_zero():
            break
        acc = acc + term
    return acc


def binomial_oracle(u, exponent):
    """(1 + u)^e = sum C(e, k) u^k, power by power."""
    if u.coefficient(0):
        raise ValueError("binomial series needs a zero constant coefficient")
    e = Fraction(exponent)
    acc = power = PowerSeries([ONE], order=u.order)
    coeff = Fraction(1)
    for k in range(1, u.order + 1):
        coeff *= Fraction(e - k + 1, k)
        power = product_oracle(power, u)
        acc = acc + scaled(power, coeff)
    return acc


def residual_oracle(s):
    n = s.order - 1
    lhs = product_oracle(PowerSeries([ONE, ZERO, -BETA], order=n), s.derivative())
    rhs = product_oracle(PowerSeries([ALPHA, BETA, 2 * GAMMA], order=n), s)
    return lhs - rhs


def series_oracle(order):
    """The generating series from the oracles."""
    exponent = [ZERO] * (order + 1)
    for k in range(1, order + 1, 2):
        m = k // 2
        tail = 2 * GAMMA * BETA ** (m - 1) if m else ZERO
        exponent[k] = (ALPHA * BETA**m + tail) / k
    u = PowerSeries([ZERO, ZERO, -BETA], order=order)
    inverse_root = binomial_oracle(u, Fraction(-1, 2))
    return product_oracle(inverse_root, exp_oracle(PowerSeries(exponent)))


# Coefficients with large denominators, zero and non-homogeneous polynomials,
# and series of different orders.
scalars = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-5, max_value=5, max_denominator=10**12),
)
polynomials = st.dictionaries(
    st.builds(Monomial, st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
    scalars,
    max_size=4,
).map(Polynomial)
series = st.lists(polynomials, min_size=1, max_size=6).map(PowerSeries)


class TestKernelAgainstOracles:
    @settings(max_examples=80, deadline=None)
    @given(series, series)
    def test_product(self, left, right):
        assert left * right == product_oracle(left, right)

    @settings(max_examples=80, deadline=None)
    @given(series, st.booleans())
    def test_exp(self, s, clear_constant):
        if clear_constant:
            s = PowerSeries((ZERO,) + s.coefficients[1:])
        if s.coefficient(0):
            with pytest.raises(ValueError):
                series_exp(s)
            with pytest.raises(ValueError):
                exp_oracle(s)
        else:
            assert series_exp(s) == exp_oracle(s)

    @settings(max_examples=80, deadline=None)
    @given(
        series,
        st.booleans(),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    )
    def test_binomial(self, u, clear_constant, exponent):
        if clear_constant:
            u = PowerSeries((ZERO,) + u.coefficients[1:])
        if u.coefficient(0):
            with pytest.raises(ValueError):
                series_binomial(u, exponent)
        else:
            assert series_binomial(u, exponent) == binomial_oracle(u, exponent)

    @settings(max_examples=80, deadline=None)
    @given(series.filter(lambda s: s.order >= 1))
    def test_residual(self, s):
        assert functional_equation_residual(s) == residual_oracle(s)

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 12])
    def test_generating_series(self, order):
        assert generating_series(order) == series_oracle(order)

    def test_huge_exponent_rejected(self):
        s = PowerSeries([ZERO, Polynomial({Monomial(0, 0, 1 << 15): 1})])
        with pytest.raises(ValueError):
            s * s
        with pytest.raises(ValueError):  # one factor is enough
            PowerSeries([Polynomial({Monomial(1 << 15): 1})]) * PowerSeries([ONE])
        assert PowerSeries([ONE, ALPHA**100]) * PowerSeries([ONE, BETA]) == (
            PowerSeries([ONE, ALPHA**100 + BETA])
        )

    def test_kernel_carries_the_arithmetic(self, monkeypatch):
        kernel = newstead.series._sum_of_products

        def drop_one(products, den=1):
            return kernel(list(products)[1:], den)

        monkeypatch.setattr(newstead.series, "_sum_of_products", drop_one)
        assert generating_series(8) != series_oracle(8)


def test_generating_series_digest():
    text = str(generating_series(30))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1abc01186e2c7dc24b64f6b804626f28da4f5995fdec9395adc7ee6c996a407f"
    )
