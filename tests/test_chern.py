import hashlib
import operator
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

import newstead.chern
from newstead.chern import (
    chern_matches_series,
    chern_relations_check,
    quotient_chern,
    tangent_chern,
    tangent_vanishing_check,
)
from newstead.groebner import GroebnerBasis, relation_ideal_basis
from newstead.relations import relations_by_recursion
from newstead.ring import ALPHA, BETA, GAMMA, ONE, Polynomial
from newstead.series import _product, generating_series, series_binomial, series_exp


@pytest.fixture(scope="module")
def bases():
    return {g: relation_ideal_basis(g) for g in range(1, 6)}


class TestQuotientClass:
    def test_low_components_by_hand(self):
        graded = quotient_chern(3)
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
    """p as a series in t whose t^w coefficient is its weight-w component."""
    return tuple(
        Polynomial({m: q for m, q in p.terms.items() if m.weight == w})
        for w in range(order + 1)
    )


def _quotient_exponent(max_weight):
    """The exponent x of c(Q), through weight max_weight."""
    x = ALPHA
    for m in range(1, (max_weight - 1) // 2 + 1):
        x = x + (ALPHA * BETA**m + 2 * GAMMA * BETA ** (m - 1)) / (2 * m + 1)
    return x


@lru_cache(maxsize=None)
def quotient_oracle(max_weight):
    """c(Q) = (1-b)^(-1/2) exp(x) by trivariate truncated series arithmetic.

    Independent of the integer kernel in `newstead.chern`: a binomial
    series times an exponential, each expanded in t with polynomial
    coefficients.
    """
    minus_beta = _graded(-BETA, max_weight)
    return _product(
        series_binomial(minus_beta, Fraction(-1, 2)),
        series_exp(_graded(_quotient_exponent(max_weight), max_weight)),
    )


def product_form(genus, max_weight):
    """The tangent class as (1-b)^g * sum_k (-4c)^k (1-b)^(-k) / k! * c(Q) * c(Q).

    An independent expansion of the closed form: no exponential of the
    tangent exponent, and the oracle c(Q) squared by two dense series
    products.
    """
    minus_beta = _graded(-BETA, max_weight)
    exp_part = _graded(ONE, max_weight)
    for k in range(1, max_weight // 3 + 1):
        gamma_term = _graded((-4 * GAMMA) ** k / factorial(k), max_weight)
        term = _product(gamma_term, series_binomial(minus_beta, -k))
        exp_part = tuple(map(operator.add, exp_part, term))
    q = quotient_oracle(max_weight)
    total = _product(series_binomial(minus_beta, genus), exp_part)
    return _product(_product(total, q), q)


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

    @pytest.mark.parametrize("max_weight", range(41))
    def test_quotient_class_equals_series_oracle(self, max_weight):
        # the oracle truncates exactly, so its order-40 expansion begins
        # with every lower one
        expected = quotient_oracle(40)[: max_weight + 1]
        assert quotient_chern(max_weight).components == expected

    def test_oracle_catches_a_short_geometric_sum(self, monkeypatch):
        # V = 2 V_Q - 4 sum_j b^j; stopping the geometric sum at j < n // 3
        # loses gamma beta^j terms of weight up to n, first at genus 4 (n = 9)
        expand = newstead.chern._expand

        def short(n, pre, pre_den, u, v, den):
            v = [vj + 4 * den * (j >= n // 3) for j, vj in enumerate(v)]
            return expand(n, pre, pre_den, u, v, den)

        monkeypatch.setattr(newstead.chern, "_expand", short)
        for genus in range(2, 4):
            top = 3 * genus - 3
            assert tangent_chern(genus, top).components == product_form(genus, top)
        for genus in range(4, 9):
            top = 3 * genus - 3
            assert tangent_chern(genus, top).components != product_form(genus, top)


def _digest(graded):
    return hashlib.sha256("\n".join(map(str, graded.components)).encode()).hexdigest()


# SHA-256 of the components of tangent_chern(g, 3g-3) and quotient_chern(87),
# one line per component as `str` prints it, computed independently of the
# integer kernel: by truncated trivariate series arithmetic, exp of the
# tangent exponent times a binomial series, as `quotient_oracle` does for c(Q)
TANGENT_DIGESTS = {
    2: "02154d4d1e4ba2ab224344cac5ac9664661261f882b0a6a6024461593b0b209f",
    3: "2acc1f9349ec7424ce9f5824a1ba4994da1c8db22636c700daa57726f0c52102",
    4: "9446655e169d922302d8ae51d5f12495a2957f61d234fff6b11ee28c8c313d8b",
    5: "2ef493eea907b13d26bd5f7804365e8dd75bcf1f36e192ff3bef675c0e92a176",
    6: "40350120d9a0b181ec919cde895c54b1ca38f1347e1cd98e5e40ff93072b6d9e",
    7: "7e386e84c6098c4cba7921b2b93b814c5d6cd32c1c8fae54bb409d76e652b7a6",
    8: "c96e53b12b1f9a6900a2521fc156a4257d88945cd32c67948b64b613576b4563",
    9: "e0d6ac882a35d1d44e1cd5404705b66f0d87c32d3d2c678ef23f5bb52b85af80",
    10: "df21870c5cdfff0e9629b5d66f6f38fb2a62091ce15fc5611b4ddca052d66566",
    11: "7fa8a22fc88240e6957ec83d68d4af18f025bc0e7ff138bce9d45cb6b756e149",
    12: "5f8e76c3b3f4562ad7eec3881154904ebbe5713529cb50abe3b9e7ba8ae800a3",
    13: "cd91833229068cc58d5a7483b0d018fb42819d9eb0da71924d11fa02009fcfe5",
    14: "da664681ee2ff89a57d55412ffd4696c83104f080f80160f6fbc855080aa86d5",
    15: "a2ed98d24f51a3ad15bb4b68d582508746929023551961e9803c606c8368230f",
    16: "a38fb924439eb02be3c240469caa189dbda12281c05280f5f17da8896976a3c3",
    17: "2b692042ddd29c675b8e181640452d23dcc0c9bcdae44f76b378913734a3bd38",
    18: "a8b4f304cc8cdb147a8a05388555387ec37cd238b00cb510e067a7ca875732ae",
    19: "b9d38ba956cf8c36e984f46a4c952873144b93d1e621c55daf4cc1df163416f1",
    20: "748b05326eed1787c577957a1e95ae39d6e976262d6c437e4a00b3b6cc7dfaa4",
    21: "090d42f6bb5a370c54ff6bbfd9810be7383ac5af0c721830b1b7771113e62278",
    22: "580cd67e1fb2797d5a5f11b00dd62db708caf9e6d35f778d72b8d73bdb919573",
    23: "9a5cf7e0c15f581ab3b6afcb7b35f3e02ea45bf42bcd31110adaa0b0cd67e183",
    24: "998d2e9f88443e1c7221c1516459ee9644c0d961811a9a2c9a4dab2014b0c074",
    25: "851757c6dbce0ee4ffe0683c1c8021d00e89df3e97c550a17941437c3df1e019",
    26: "1bb1e8e7dccdb40f183cc18b31c575b19dd7823cffd0cd0dd46a7daadd078819",
    27: "ed6e76d5da9f8ae54c7d4a6dd5ab553c16c4902945c4ef78f3d939e3c0ea3fc2",
    28: "4e07bd4150ac78910caeb3c9a01ef8ce10ca56fe20d395f6775734950c6afb77",
    29: "c66aa7fabb3bd9e62d93cf5a3621e8d1f12d766fc4b9f8e5fb8a74935ae11b92",
    30: "8e3d0e1f7389cb1cfea42a8ffd39d8d2ca86202c0df9ce79081e462e24f5e33c",
}
QUOTIENT_87_DIGEST = "203862285e954dace1b1cbc8e185698e74d9dd74852a2b62e716eaa72f69c125"


class TestPinnedDigests:
    @pytest.mark.parametrize("genus", range(2, 31))
    def test_tangent_class_at_top_weight(self, genus):
        assert _digest(tangent_chern(genus, 3 * genus - 3)) == TANGENT_DIGESTS[genus]

    def test_quotient_class_through_weight_87(self):
        assert _digest(quotient_chern(87)) == QUOTIENT_87_DIGEST


class TestPipelineAgreement:
    @pytest.mark.parametrize("genus", range(1, 9))
    def test_chern_matches_series(self, genus):
        graded = quotient_chern(genus + 2)
        assert chern_matches_series(graded, generating_series(genus + 2))

    def test_series_must_reach_the_truncation(self):
        with pytest.raises(ValueError):
            chern_matches_series(quotient_chern(5), generating_series(4))


class TestRelationsMembership:
    @pytest.mark.parametrize("genus", range(1, 5))
    def test_quotient_classes_generate_ideal(self, genus):
        triple = relations_by_recursion(genus)
        assert chern_relations_check(quotient_chern(genus + 2), triple)

    def test_class_must_reach_weight_g_plus_2(self):
        with pytest.raises(ValueError):
            chern_relations_check(quotient_chern(4), relations_by_recursion(3))

    def test_low_classes_do_not_vanish(self, bases):
        # below the critical range the classes survive in the quotient
        graded = quotient_chern(4)
        gb = bases[3]
        assert gb.normal_form(graded.component(1)) == ALPHA
        assert gb.normal_form(graded.component(2))


class TestTangentVanishing:
    @pytest.mark.parametrize("genus", range(2, 6))
    def test_high_components_vanish(self, genus, bases):
        assert tangent_vanishing_check(bases[genus])

    @pytest.mark.parametrize("genus", range(2, 6))
    def test_negative_control_c1_survives(self, genus, bases):
        c1 = tangent_chern(genus, 1).component(1)
        assert bases[genus].normal_form(c1) == 2 * ALPHA

    @pytest.mark.parametrize("genus", range(2, 13))
    def test_duality_finds_boundary_component_nonzero(self, genus):
        # c_(2g-2) is outside the vanishing range and survives; the socle
        # pairing must see it, as division does
        gb = relation_ideal_basis(genus)
        c = tangent_chern(genus, 2 * genus - 2).component(2 * genus - 2)
        assert gb.normal_form(c)
        assert not newstead.chern._all_vanish([c], gb)

    def test_needs_the_genus_tagged_basis(self, bases):
        with pytest.raises(ValueError):
            tangent_vanishing_check(GroebnerBasis(bases[3].elements))

    def test_boundary_component_survives_at_genus_three(self, bases):
        # weight 2g-2 = 4 is outside the vanishing range and indeed survives
        c4 = tangent_chern(3, 4).component(4)
        assert bases[3].normal_form(c4)


class TestGradedClass:
    def test_max_degree(self):
        assert quotient_chern(7).max_degree == 7


class TestRelationIdentity:
    def test_twice_second_component_is_genus_two_relation(self):
        from newstead.relations import relations_by_recursion

        c2 = quotient_chern(2).component(2)
        assert 2 * c2 == relations_by_recursion(2).f1
