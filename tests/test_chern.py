from fractions import Fraction
from math import factorial

import pytest

import newstead.chern
from newstead.chern import (
    QUOTIENT_BUNDLE,
    TANGENT_MODULI,
    chern_matches_series,
    chern_relations_check,
    quotient_chern,
    tangent_chern,
    tangent_vanishing_check,
)
from newstead.groebner import relation_ideal_basis
from newstead.ring import ALPHA, BETA, GAMMA, ONE
from newstead.series import PowerSeries, series_binomial


@pytest.fixture(scope="module")
def bases():
    return {g: relation_ideal_basis(g) for g in range(1, 6)}


class TestQuotientClass:
    def test_low_components_by_hand(self):
        graded = quotient_chern(3)
        assert graded.label == QUOTIENT_BUNDLE
        assert graded.component(0) == ONE
        assert graded.component(1) == ALPHA
        assert graded.component(2) == (ALPHA**2 + BETA) / 2
        assert graded.component(3) == (
            ALPHA**3 / 6 + Fraction(5, 6) * ALPHA * BETA + Fraction(2, 3) * GAMMA
        )

    def test_components_weighted_homogeneous(self):
        graded = quotient_chern(9)
        for w, c in enumerate(graded.components):
            if c:
                assert c.weighted_degree() == w

    def test_component_bounds(self):
        graded = quotient_chern(2)
        with pytest.raises(ValueError):
            graded.component(3)

    @pytest.mark.parametrize("r", range(11))
    def test_r_factorial_clears_denominators(self, r):
        c = quotient_chern(10).component(r)
        scaled = factorial(r) * c
        assert all(q.denominator == 1 for q in scaled.terms.values())


class TestTangentClass:
    def test_low_components(self):
        for genus in range(2, 6):
            graded = tangent_chern(genus, 2)
            assert graded.label == TANGENT_MODULI
            assert graded.component(0) == ONE
            assert graded.component(1) == 2 * ALPHA
            assert graded.component(2) == 2 * ALPHA**2 + (1 - genus) * BETA

    def test_genus_two_weight_three_component(self):
        c3 = tangent_chern(2, 3).component(3)
        assert c3 == (
            Fraction(4, 3) * ALPHA**3
            - Fraction(4, 3) * ALPHA * BETA
            - Fraction(8, 3) * GAMMA
        )

    def test_genus_two_top_classes_vanish_in_quotient(self, bases):
        # the tangent bundle of the genus-2 space has c_3 = 0, so the
        # weight-3 component must die modulo the relations
        gb = bases[2]
        c3 = tangent_chern(2, 3).component(3)
        assert not gb.normal_form(c3)

    def test_small_genus_rejected(self):
        with pytest.raises(ValueError):
            tangent_chern(1, 3)


def _graded(p, order):
    return PowerSeries([p.homogeneous_component(w) for w in range(order + 1)])


def product_form(genus, max_weight):
    """The tangent class as (1-b)^g * sum_k (-4c)^k (1-b)^(-k) / k! * c(Q) * c(Q).

    An independent expansion of the closed form: no exponential of the
    tangent exponent, and c(Q) squared by two dense series products.
    """
    minus_beta = _graded(-BETA, max_weight)
    exp_part = PowerSeries([ONE], order=max_weight)
    for k in range(1, max_weight // 3 + 1):
        gamma_term = _graded((-4 * GAMMA) ** k / factorial(k), max_weight)
        exp_part = exp_part + gamma_term * series_binomial(minus_beta, -k)
    q = PowerSeries(quotient_chern(max_weight).components)
    total = series_binomial(minus_beta, genus) * exp_part * q * q
    return total.coefficients


class TestProductFormOracle:
    @pytest.mark.parametrize("genus", range(2, 9))
    def test_one_exponential_equals_product_form(self, genus):
        top = 3 * genus - 3
        assert tangent_chern(genus, top).components == product_form(genus, top)

    @pytest.mark.parametrize("max_weight", range(13))
    def test_every_truncation_is_a_prefix(self, max_weight):
        assert tangent_chern(5, max_weight).components == product_form(5, 12)[
            : max_weight + 1
        ]

    def test_oracle_catches_a_short_geometric_sum(self, monkeypatch):
        # stopping sum_j beta^j at j < n // 3 instead of j <= (n-3) // 2 loses
        # gamma beta^j terms of weight up to n, first at genus 4 (n = 9)
        def short(max_weight):
            y = 2 * newstead.chern._quotient_exponent(max_weight)
            for j in range(max_weight // 3):
                y = y - 4 * GAMMA * BETA**j
            return y

        monkeypatch.setattr(newstead.chern, "_tangent_exponent", short)
        for genus in range(2, 4):
            top = 3 * genus - 3
            assert tangent_chern(genus, top).components == product_form(genus, top)
        for genus in range(4, 9):
            top = 3 * genus - 3
            assert tangent_chern(genus, top).components != product_form(genus, top)


class TestPipelineAgreement:
    @pytest.mark.parametrize("genus", range(1, 9))
    def test_chern_matches_series(self, genus):
        assert chern_matches_series(genus)


class TestRelationsMembership:
    @pytest.mark.parametrize("genus", range(1, 5))
    def test_quotient_classes_generate_ideal(self, genus, bases):
        assert chern_relations_check(genus, bases[genus])

    def test_low_classes_do_not_vanish(self, bases):
        # below the critical range the classes survive in the quotient
        graded = quotient_chern(4)
        gb = bases[3]
        assert gb.normal_form(graded.component(1)) == ALPHA
        assert gb.normal_form(graded.component(2))


class TestTangentVanishing:
    @pytest.mark.parametrize("genus", range(2, 6))
    def test_high_components_vanish(self, genus, bases):
        assert tangent_vanishing_check(genus, bases[genus])

    @pytest.mark.parametrize("genus", range(2, 6))
    def test_negative_control_c1_survives(self, genus, bases):
        c1 = tangent_chern(genus, 1).component(1)
        assert bases[genus].normal_form(c1) == 2 * ALPHA

    def test_boundary_component_survives_at_genus_three(self, bases):
        # weight 2g-2 = 4 is outside the vanishing range and indeed survives
        c4 = tangent_chern(3, 4).component(4)
        assert bases[3].normal_form(c4)


class TestGradedClass:
    def test_total_reassembles(self):
        graded = quotient_chern(5)
        total = graded.total()
        for w, c in enumerate(graded.components):
            assert total.homogeneous_component(w) == c

    def test_max_degree(self):
        assert quotient_chern(7).max_degree == 7


class TestRelationIdentity:
    def test_twice_second_component_is_genus_two_relation(self):
        from newstead.relations import relations_by_recursion

        c2 = quotient_chern(2).component(2)
        assert 2 * c2 == relations_by_recursion(2).f1
