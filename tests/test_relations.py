from fractions import Fraction

import pytest

from newstead.relations import (
    initial_terms,
    iter_recursion_triples,
    relations_by_definition,
    relations_by_recursion,
)
from newstead.ring import ALPHA, BETA, GAMMA, Monomial, Polynomial
from newstead.series import generating_series

# hand-iterated triples, frozen as raw dictionaries
EXPECTED = {
    1: (ALPHA, BETA, GAMMA),
    2: (
        Polynomial({(2, 0, 0): 1, (0, 1, 0): 1}),
        Polynomial({(1, 1, 0): 1, (0, 0, 1): 1}),
        Polynomial({(1, 0, 1): 1}),
    ),
    3: (
        Polynomial({(3, 0, 0): 1, (1, 1, 0): 5, (0, 0, 1): 4}),
        Polynomial({(2, 1, 0): 1, (0, 2, 0): 1, (1, 0, 1): Fraction(4, 3)}),
        Polynomial({(2, 0, 1): 1, (0, 1, 1): 1}),
    ),
    4: (
        Polynomial({(4, 0, 0): 1, (2, 1, 0): 14, (0, 2, 0): 9, (1, 0, 1): 16}),
        Polynomial(
            {
                (3, 1, 0): 1,
                (1, 2, 0): 5,
                (2, 0, 1): Fraction(3, 2),
                (0, 1, 1): Fraction(11, 2),
            }
        ),
        Polynomial({(3, 0, 1): 1, (1, 1, 1): 5, (0, 0, 2): 4}),
    ),
}


class TestRecursion:
    @pytest.mark.parametrize("genus", sorted(EXPECTED))
    def test_frozen_values(self, genus):
        triple = relations_by_recursion(genus)
        assert triple.polynomials() == EXPECTED[genus]
        assert triple.genus == genus

    def test_iterator_matches_single(self):
        triples = list(iter_recursion_triples(5))
        assert [t.genus for t in triples] == [1, 2, 3, 4, 5]
        assert triples[3] == relations_by_recursion(4)

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            relations_by_recursion(0)


class TestDefinition:
    @pytest.mark.parametrize("genus", sorted(EXPECTED))
    def test_frozen_values(self, genus):
        triple = relations_by_definition(genus)
        assert triple.polynomials() == EXPECTED[genus]

    def test_insufficient_series_order_rejected(self):
        short = generating_series(3)
        with pytest.raises(ValueError):
            relations_by_definition(2, short)

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            relations_by_definition(0)

    def test_shared_series_reused(self):
        phi = generating_series(10)
        for genus in range(1, 9):
            assert relations_by_definition(genus, phi) == relations_by_recursion(genus)


class TestStructure:
    @pytest.mark.parametrize("genus", range(1, 9))
    def test_dual_paths_agree(self, genus):
        assert relations_by_recursion(genus) == relations_by_definition(genus)

    @pytest.mark.parametrize("genus", range(1, 13))
    def test_initial_terms_pattern(self, genus):
        triple = relations_by_recursion(genus)
        assert initial_terms(triple) == (
            Monomial(genus, 0, 0),
            Monomial(genus - 1, 1, 0),
            Monomial(genus - 1, 0, 1),
        )

    def test_initial_terms_examples(self):
        assert initial_terms(relations_by_recursion(1)) == (
            Monomial(1, 0, 0),
            Monomial(0, 1, 0),
            Monomial(0, 0, 1),
        )
        assert initial_terms(relations_by_recursion(5)) == (
            Monomial(5, 0, 0),
            Monomial(4, 1, 0),
            Monomial(4, 0, 1),
        )

    @pytest.mark.parametrize("genus", range(1, 13))
    def test_weighted_degrees(self, genus):
        triple = relations_by_recursion(genus)
        assert triple.weighted_degrees() == (genus, genus + 1, genus + 2)

    @pytest.mark.parametrize("genus", range(1, 13))
    def test_monic_leads(self, genus):
        for p in relations_by_recursion(genus).polynomials():
            assert p.leading_coefficient() == 1

    @pytest.mark.parametrize("genus", range(1, 13))
    def test_weighted_homogeneous(self, genus):
        for p in relations_by_recursion(genus).polynomials():
            assert p.weighted_degree() is not None

    def test_equality_includes_genus(self):
        t1 = relations_by_recursion(2)
        t3 = relations_by_recursion(3)
        assert t1 != t3
