from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from newstead.ring import ALPHA, BETA, GAMMA, ONE, ZERO, Monomial, Polynomial
from newstead.ring import integer_form, key_mono, mono_key

monomials = st.builds(
    Monomial, st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)
)
coefficients = st.fractions(min_value=-10, max_value=10, max_denominator=7).filter(
    bool
)
polynomials = st.dictionaries(monomials, coefficients, max_size=6).map(Polynomial)
nonzero_polynomials = polynomials.filter(bool)


class TestMonomialOrder:
    def test_degree_dominates(self):
        assert Monomial(3, 0, 0) > Monomial(1, 1, 0)

    def test_reverse_lex_tie_break(self):
        # equal degree: the smaller gamma exponent wins
        assert Monomial(0, 2, 0) > Monomial(1, 0, 1)

    def test_reflexive(self):
        m = Monomial(2, 3, 4)
        assert m == m and m <= m and m >= m
        assert not (m < m or m > m)

    def test_matches_rich_comparisons(self):
        assert Monomial(0, 2, 0) > Monomial(1, 0, 1)
        assert Monomial(1, 1, 0) < Monomial(3, 0, 0)
        assert not Monomial(1, 0, 0) < Monomial(1, 0, 0)

    @given(monomials, monomials)
    def test_total_order(self, m1, m2):
        # exactly one of <, == and > holds
        assert [m1 < m2, m1 == m2, m1 > m2].count(True) == 1
        assert (m1 < m2) == (m2 > m1)

    @given(monomials, monomials, monomials)
    def test_compatible_with_multiplication(self, m, m1, m2):
        if m1 < m2:
            assert m * m1 < m * m2

    @given(monomials, monomials, monomials)
    def test_transitive(self, m1, m2, m3):
        if m1 <= m2 and m2 <= m3:
            assert m1 <= m3

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(1, 6))
    def test_gamma_free_beats_gamma_at_equal_degree_and_weight(self, a2, b2, c2):
        m2 = Monomial(a2, b2, c2)
        d, w = m2.degree, m2.weight
        # gamma-free monomial of the same degree and weight, when one exists
        b1 = w - d
        a1 = 2 * d - w
        if a1 >= 0 and b1 >= 0:
            m1 = Monomial(a1, b1, 0)
            assert m1.degree == d and m1.weight == w
            assert m1 > m2


class TestMonomialArithmetic:
    def test_mul_and_degree(self):
        m = Monomial(1, 2, 0) * Monomial(0, 1, 3)
        assert m == Monomial(1, 3, 3)
        assert m.degree == 7
        assert m.weight == 1 + 6 + 9

    def test_weight_examples(self):
        assert Monomial(2, 1, 1).weight == 7
        assert Monomial().weight == 0

    def test_divides_and_quotient(self):
        assert Monomial(1, 0, 1).divides(Monomial(2, 0, 1))
        assert Monomial(2, 0, 1) // Monomial(1, 0, 1) == Monomial(1, 0, 0)
        with pytest.raises(ValueError):
            Monomial(1, 0, 0) // Monomial(0, 1, 0)

    def test_lcm_coprime(self):
        assert Monomial(2, 0, 1).lcm(Monomial(1, 3, 0)) == Monomial(2, 3, 1)
        # coprime monomials, and only those, have their product as lcm
        assert Monomial(2, 0, 0).lcm(Monomial(0, 1, 1)) == Monomial(2, 1, 1)
        assert Monomial(1, 1, 0).lcm(Monomial(0, 1, 1)) != Monomial(1, 2, 1)

    def test_str(self):
        assert str(Monomial()) == "1"
        assert str(Monomial(2, 0, 0)) == "a^2"
        assert str(Monomial(1, 1, 0)) == "a*b"
        assert str(Monomial(3, 0, 1)) == "a^3*c"


class TestPolynomialArithmetic:
    def test_add_cancellation(self):
        assert ALPHA**2 + BETA + (-BETA) == ALPHA**2

    def test_add_identity(self):
        p = 3 * ALPHA * GAMMA - BETA
        assert p + ZERO == p

    def test_base_triple_sum(self):
        assert ALPHA + BETA == Polynomial({(1, 0, 0): 1, (0, 1, 0): 1})

    def test_mul_variable(self):
        assert GAMMA * ALPHA == Polynomial({(1, 0, 1): 1})

    def test_mul_unit(self):
        p = ALPHA + BETA
        assert p * ONE == p

    def test_mul_distributes_by_hand(self):
        assert (ALPHA**2 + BETA) * GAMMA == Polynomial(
            {(2, 0, 1): 1, (0, 1, 1): 1}
        )

    def test_scalar_operations(self):
        p = Fraction(1, 2) * ALPHA - BETA / 3
        assert p.coefficient((1, 0, 0)) == Fraction(1, 2)
        assert p.coefficient((0, 1, 0)) == Fraction(-1, 3)
        assert (p * 6).coefficient((1, 0, 0)) == 3

    def test_zero_normalization(self):
        assert not Polynomial({(1, 0, 0): 0})
        assert not Polynomial([((1, 0, 0), 1), ((1, 0, 0), -1)])

    @given(polynomials, polynomials, polynomials)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p - q) + q == p and not p - p

    @given(polynomials, polynomials, polynomials)
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(nonzero_polynomials, nonzero_polynomials)
    def test_leading_term_of_product(self, p, q):
        prod = p * q
        assert prod.leading_monomial() == p.leading_monomial() * q.leading_monomial()
        assert (
            prod.leading_coefficient()
            == p.leading_coefficient() * q.leading_coefficient()
        )


class TestGrading:
    def test_single_monomial_weight(self):
        assert Polynomial({(2, 1, 1): 1}).weighted_degree() == 7

    def test_homogeneous(self):
        assert (ALPHA**2 + BETA).weighted_degree() == 2

    def test_mixed(self):
        assert (ALPHA + BETA).weighted_degree() is None

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ZERO.weighted_degree()

    def test_leading_monomial_zero_rejected(self):
        with pytest.raises(ValueError):
            ZERO.leading_monomial()


class TestCanonicalText:
    def test_examples(self):
        assert str(ALPHA**2 + BETA) == "a^2 + b"
        assert str(ALPHA * BETA + GAMMA) == "a*b + c"
        assert str(Fraction(-1, 2) * ALPHA**3 * GAMMA) == "-1/2*a^3*c"
        assert str(ZERO) == "0"

    def test_signs_and_constants(self):
        assert str(ALPHA - ONE) == "a - 1"
        assert str(-ALPHA + 2 * BETA) == "-a + 2*b"
        assert str(Fraction(-5, 3) * ONE) == "-5/3"

    def test_terms_descend(self):
        p = GAMMA + ALPHA**3 + BETA
        assert str(p) == "a^3 + b + c"


class TestOrderOverridesTupleOrder:
    def test_max_uses_grevlex_not_tuple_order(self):
        # plain tuple comparison would pick (2,0,0) here; grevlex must not
        low = Monomial(2, 0, 0)
        high = Monomial(0, 3, 0)
        assert max([low, high]) == high
        assert sorted([high, low]) == [low, high]


# every exponent the integer form accepts
packable = st.builds(Monomial, *[st.integers(0, (1 << 15) - 1)] * 3)


class TestIntegerForm:
    @given(st.dictionaries(packable, coefficients, max_size=6).map(Polynomial))
    def test_round_trip(self, p):
        den, terms = integer_form(p)
        assert Polynomial({key_mono(k): Fraction(n, den) for k, n in terms}) == p

    @given(packable, packable)
    def test_keys_add_as_monomials_multiply(self, m1, m2):
        assert mono_key(m1 * m2) == mono_key(m1) + mono_key(m2)
