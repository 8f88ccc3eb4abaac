from itertools import combinations
from math import comb

import pytest

from newstead.betti import (
    betti_cross_check,
    default_s_max,
    enumerate_generator_counts,
    invariant_dimensions,
    newstead_betti,
)
from newstead.groebner import hilbert_series, relation_ideal_basis


def subset_level_count(genus: int, s: int) -> int:
    """Oracle: count generators by explicit odd-class index subsets.

    Walks every subset of {1..2g} of even size 2l instead of using the
    binomial factor, then counts admissible (a, b) resp. (a, b, k).
    """
    total = 0
    for size in range(0, 2 * genus + 1, 2):
        for _indices in combinations(range(2 * genus), size):
            l = size // 2
            for b in range(0, s + 1):
                a = s - 2 * b - 3 * l
                if a >= 0 and a + b + 2 * l < genus - 1:
                    total += 1
            for k in range(0, s + 1):
                for b in range(0, s + 1):
                    a = s - 2 * b - 3 * k - 3 * l
                    if a >= 0 and a + b + k + 2 * l == genus - 1:
                        total += 1
    return total


class TestRecursion:
    def test_seeds(self):
        for genus in range(2, 8):
            table = newstead_betti(genus)
            assert table[0] == 1
            assert table[1] == 1

    def test_genus_two_table(self):
        # the genus-2 moduli space is an intersection of two quadrics with
        # even Betti numbers 1, 1, 1, 1
        assert newstead_betti(2, 3) == (1, 1, 1, 1)

    def test_genus_three_table(self):
        assert newstead_betti(3) == (1, 1, 2, 16, 2)

    def test_genus_three_beyond_default_range(self):
        # past s_max = 4 the window s-g+1 <= l <= s/3 keeps l below g
        assert newstead_betti(3, 12) == (
            1, 1, 2, 16, 2, 16, 2, 16, 2, 16, 2, 16, 2
        )

    def test_default_range(self):
        assert default_s_max(2) == 2
        assert default_s_max(3) == 4
        assert default_s_max(10) == 14
        assert len(newstead_betti(5)) == default_s_max(5) + 1

    def test_values_non_negative_integers(self):
        for genus in range(2, 9):
            for v in newstead_betti(genus):
                assert isinstance(v, int) and v >= 0

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            newstead_betti(1)


class TestEnumeration:
    def test_degree_zero(self):
        for genus in range(2, 8):
            assert enumerate_generator_counts(genus, 0) == 1

    def test_degree_one(self):
        for genus in range(2, 8):
            assert enumerate_generator_counts(genus, 1) == 1

    def test_spot_values(self):
        assert enumerate_generator_counts(2, 2) == 1
        assert enumerate_generator_counts(2, 3) == 1
        assert enumerate_generator_counts(3, 3) == 16
        assert enumerate_generator_counts(4, 4) == 30

    @pytest.mark.parametrize("genus", (2, 3))
    def test_subset_level_oracle(self, genus):
        for s in range(default_s_max(genus) + 1):
            assert enumerate_generator_counts(genus, s) == subset_level_count(
                genus, s
            )

    def test_table_source(self):
        table = tuple(
            enumerate_generator_counts(3, s) for s in range(default_s_max(3) + 1)
        )
        assert table == (1, 1, 2, 16, 2)

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            enumerate_generator_counts(1, 0)


class TestCrossCheck:
    @pytest.mark.parametrize("genus", range(2, 9))
    def test_recursion_equals_enumeration(self, genus):
        assert betti_cross_check(genus)

    @pytest.mark.parametrize("genus", range(2, 7))
    def test_componentwise(self, genus):
        recursion = newstead_betti(genus)
        for s in range(default_s_max(genus) + 1):
            assert recursion[s] == enumerate_generator_counts(genus, s)


class TestInvariantDimensions:
    def test_genus_one(self):
        assert invariant_dimensions(1) == (1,)

    def test_genus_two(self):
        assert invariant_dimensions(2) == (1, 1, 1, 1)

    def test_genus_three(self):
        assert invariant_dimensions(3) == (1, 1, 2, 2, 2, 1, 1)

    @pytest.mark.parametrize("genus", range(1, 8))
    def test_total_count(self, genus):
        assert sum(invariant_dimensions(genus)) == comb(genus + 2, 3)

    @pytest.mark.parametrize("genus", range(1, 7))
    def test_matches_hilbert_series(self, genus):
        assert invariant_dimensions(genus) == hilbert_series(
            relation_ideal_basis(genus)
        )

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            invariant_dimensions(0)
