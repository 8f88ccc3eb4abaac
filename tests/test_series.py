import hashlib
import operator
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import newstead.series
from newstead.ring import ALPHA, BETA, GAMMA, ONE, ZERO, Monomial, Polynomial
from newstead.series import (
    _product,
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
        s1 = (ONE, ALPHA) + (ZERO,) * 4
        s2 = (ONE, BETA, ZERO, ZERO)
        assert len(_product(s1, s2)) == 4

    def test_coefficient_bounds(self):
        s = (ONE, ALPHA)
        with pytest.raises(ValueError):
            taylor_derivative(s, 2)
        with pytest.raises(ValueError):  # not s[-1]
            taylor_derivative(s, -1)

    @pytest.mark.parametrize(
        "call",
        [
            series_exp,
            lambda s: series_binomial(s, Fraction(1, 2)),
            functional_equation_residual,
            lambda s: taylor_derivative(s, 0),
        ],
        ids=["exp", "binomial", "residual", "taylor"],
    )
    def test_empty_series_rejected(self, call):
        with pytest.raises(ValueError):
            call(())

    def test_mul_example(self):
        left = (ONE, ALPHA, ZERO, ZERO)
        right = (ONE, -ALPHA, ZERO, ZERO)
        assert _product(left, right) == (ONE, ZERO, -(ALPHA**2), ZERO)

    def test_mul_unit(self):
        s = (ONE, ALPHA, BETA, GAMMA)
        assert _product(s, (ONE, ZERO, ZERO, ZERO)) == s

    def test_mul_leading_factors_by_hand(self):
        left = (ONE, ZERO, BETA / 2)
        right = (ONE, ALPHA, ALPHA**2 / 2)
        assert _product(left, right) == (ONE, ALPHA, (ALPHA**2 + BETA) / 2)

    def test_derivative(self):
        # the oracle helper that `residual_oracle` differentiates with
        assert derivative((BETA, ALPHA, GAMMA)) == (ALPHA, 2 * GAMMA)


class TestExp:
    def test_exp_zero(self):
        assert series_exp((ZERO,) * 5) == (ONE,) + (ZERO,) * 4

    def test_exp_scalar_times_t(self):
        e = series_exp((ZERO, ALPHA, ZERO, ZERO, ZERO))
        assert e == tuple(ALPHA**k / factorial(k) for k in range(5))

    def test_exp_with_cubic_term(self):
        cubic = (ALPHA * BETA + 2 * GAMMA) / 3
        e = series_exp((ZERO, ALPHA, ZERO, cubic))
        assert e[3] == ALPHA**3 / 6 + cubic

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            series_exp((ONE, ALPHA))

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
        s1 = ((ZERO,) + tuple(q * BETA for q in c1) + (ZERO,) * n)[: n + 1]
        s2 = ((ZERO,) + tuple(q * ALPHA for q in c2) + (ZERO,) * n)[: n + 1]
        assert series_exp(add(s1, s2)) == _product(series_exp(s1), series_exp(s2))


class TestBinomial:
    def test_inverse_sqrt_of_one_minus_beta_t2(self):
        u = (ZERO, ZERO, -BETA, ZERO, ZERO, ZERO)
        s = series_binomial(u, Fraction(-1, 2))
        assert s[0] == ONE
        assert s[2] == BETA / 2
        assert s[4] == Fraction(3, 8) * BETA**2
        assert s[1] == ZERO
        assert s[3] == ZERO

    def test_power_zero(self):
        u = (ZERO, ALPHA, ZERO, ZERO, ZERO)
        assert series_binomial(u, 0) == (ONE,) + (ZERO,) * 4

    def test_power_one(self):
        u = (ZERO, ALPHA, BETA, ZERO, ZERO)
        one_plus = add((ONE,) + (ZERO,) * 4, u)
        assert series_binomial(u, 1) == one_plus

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            series_binomial((ONE, ALPHA), Fraction(1, 2))

    def test_square_of_inverse_sqrt(self):
        u = (ZERO, ALPHA, -BETA, GAMMA) + (ZERO,) * 4
        s = series_binomial(u, Fraction(-1, 2))
        one = (ONE,) + (ZERO,) * 7
        assert _product(_product(s, s), add(one, u)) == one


class TestGeneratingSeries:
    def test_low_order_coefficients(self):
        assert generating_series(4) == tuple(PHI_COEFFS)

    def test_t_homogeneity(self):
        phi = generating_series(12)
        assert len(phi) == 13
        for k, coeff in enumerate(phi):
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
        assert generating_series(0) == (ONE,)


class TestFunctionalEquation:
    def test_residual_vanishes(self):
        residual = functional_equation_residual(generating_series(12))
        assert len(residual) == 12
        assert not any(residual)

    def test_residual_of_constant_one(self):
        residual = functional_equation_residual((ONE,) + (ZERO,) * 4)
        assert residual == (-ALPHA, -BETA, -2 * GAMMA, ZERO)

    def test_perturbation_detected(self):
        phi = generating_series(6)
        bumped = add(phi, (ZERO, ZERO, ONE) + (ZERO,) * 4)
        residual = functional_equation_residual(bumped)
        assert residual[1] == 2 * ONE


# Oracles: the series arithmetic as it was before the integer kernel, one
# Fraction product and one Fraction sum per pair of terms, so they share no
# code with `_sum_of_products`.  A series is a tuple of its coefficients, and
# every result is truncated at the shortest input.


def product_oracle(left, right):
    n = min(len(left), len(right))
    coeffs = [ZERO] * n
    for i, ci in enumerate(left[:n]):
        if not ci:
            continue
        for j in range(n - i):
            cj = right[j]
            if cj:
                coeffs[i + j] = coeffs[i + j] + ci * cj
    return tuple(coeffs)


def add(s, t):
    return tuple(map(operator.add, s, t))


def derivative(s):
    return tuple((k + 1) * c for k, c in enumerate(s[1:]))


def scaled(s, q):
    return tuple(c * q for c in s)


def exp_oracle(s):
    """exp(s) = sum s^k / k!, term by term."""
    if s[0]:
        raise ValueError("series exponential needs a zero constant coefficient")
    acc = term = (ONE,) + (ZERO,) * (len(s) - 1)
    for k in range(1, len(s)):
        term = scaled(product_oracle(term, s), Fraction(1, k))
        if not any(term):
            break
        acc = add(acc, term)
    return acc


def binomial_oracle(u, exponent):
    """(1 + u)^e = sum C(e, k) u^k, power by power."""
    if u[0]:
        raise ValueError("binomial series needs a zero constant coefficient")
    e = Fraction(exponent)
    acc = power = (ONE,) + (ZERO,) * (len(u) - 1)
    coeff = Fraction(1)
    for k in range(1, len(u)):
        coeff *= Fraction(e - k + 1, k)
        power = product_oracle(power, u)
        acc = add(acc, scaled(power, coeff))
    return acc


def residual_oracle(s):
    n = len(s) - 1
    lhs = product_oracle(((ONE, ZERO, -BETA) + (ZERO,) * n)[:n], derivative(s))
    rhs = product_oracle(((ALPHA, BETA, 2 * GAMMA) + (ZERO,) * n)[:n], s)
    return add(lhs, scaled(rhs, -1))


def series_oracle(order):
    """The generating series from the oracles."""
    exponent = [ZERO] * (order + 1)
    for k in range(1, order + 1, 2):
        m = k // 2
        tail = 2 * GAMMA * BETA ** (m - 1) if m else ZERO
        exponent[k] = (ALPHA * BETA**m + tail) / k
    u = ((ZERO, ZERO, -BETA) + (ZERO,) * order)[: order + 1]
    inverse_root = binomial_oracle(u, Fraction(-1, 2))
    return product_oracle(inverse_root, exp_oracle(tuple(exponent)))


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
series = st.lists(polynomials, min_size=1, max_size=6).map(tuple)


class TestKernelAgainstOracles:
    @settings(max_examples=80, deadline=None)
    @given(series, series)
    def test_product(self, left, right):
        assert _product(left, right) == product_oracle(left, right)

    @settings(max_examples=80, deadline=None)
    @given(series, st.booleans())
    def test_exp(self, s, clear_constant):
        if clear_constant:
            s = (ZERO,) + s[1:]
        if s[0]:
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
            u = (ZERO,) + u[1:]
        if u[0]:
            with pytest.raises(ValueError):
                series_binomial(u, exponent)
        else:
            assert series_binomial(u, exponent) == binomial_oracle(u, exponent)

    @settings(max_examples=80, deadline=None)
    @given(series.filter(lambda s: len(s) >= 2))
    def test_residual(self, s):
        assert functional_equation_residual(s) == residual_oracle(s)

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 12])
    def test_generating_series(self, order):
        assert generating_series(order) == series_oracle(order)

    def test_huge_exponent_rejected(self):
        s = (ZERO, Polynomial({Monomial(0, 0, 1 << 15): 1}))
        with pytest.raises(ValueError):
            _product(s, s)
        with pytest.raises(ValueError):  # one factor is enough
            _product((Polynomial({Monomial(1 << 15): 1}),), (ONE,))
        assert _product((ONE, ALPHA**100), (ONE, BETA)) == (ONE, ALPHA**100 + BETA)

    def test_kernel_carries_the_arithmetic(self, monkeypatch):
        kernel = newstead.series._sum_of_products

        def drop_one(products, den=1):
            return kernel(list(products)[1:], den)

        monkeypatch.setattr(newstead.series, "_sum_of_products", drop_one)
        assert generating_series(8) != series_oracle(8)


def test_generating_series_digest():
    text = "; ".join(f"t^{k}: {c}" for k, c in enumerate(generating_series(30)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1abc01186e2c7dc24b64f6b804626f28da4f5995fdec9395adc7ee6c996a407f"
    )
