import dataclasses
import hashlib
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import newstead.groebner
from newstead.chern import quotient_chern
from newstead.groebner import (
    GroebnerBasis,
    _entry,
    _s_terms,
    buchberger,
    complete_intersection_hilbert,
    expected_initial_ideal,
    expected_standard_count,
    hilbert_series,
    ideal_equal,
    is_groebner_basis,
    normal_form,
    pairing_ratio,
    relation_ideal_basis,
    standard_monomials,
)
from newstead.relations import relations_by_recursion
from newstead.ring import ALPHA, BETA, GAMMA, ONE, Monomial, Polynomial
from newstead.series import generating_series, taylor_derivative

monomials = st.builds(
    Monomial, st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
)
coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)
polynomials = st.dictionaries(monomials, coefficients, max_size=5).map(Polynomial)

GOLDEN = Path(__file__).resolve().parent / "golden"


def top_weight_monomials(genus):
    top = 3 * genus - 3
    return [
        Monomial(a, b, (top - a - 2 * b) // 3)
        for a in range(top + 1)
        for b in range((top - a) // 2 + 1)
        if (top - a - 2 * b) % 3 == 0
    ]


@pytest.fixture(scope="module")
def gb2():
    return relation_ideal_basis(2)


@pytest.fixture(scope="module")
def gb3():
    return relation_ideal_basis(3)


@pytest.fixture
def s_polys_built(monkeypatch):
    """A list that grows by one with each S-polynomial `groebner` builds."""
    built = []
    real = newstead.groebner._s_terms

    def counting(e1, e2):
        built.append(1)
        return real(e1, e2)

    monkeypatch.setattr(newstead.groebner, "_s_terms", counting)
    return built


class TestBuchberger:
    def test_monomial_generators_already_reduced(self):
        gb = buchberger([ALPHA, BETA, GAMMA])
        assert set(gb.elements) == {ALPHA, BETA, GAMMA}

    def test_single_generator(self):
        gb = buchberger([ALPHA**2])
        assert gb.elements == (ALPHA**2,)

    def test_result_is_untagged(self):
        # only relation_ideal_basis, the cache and explicit construction tag
        triple = relations_by_recursion(3).polynomials()
        assert buchberger(triple).genus is None
        assert relation_ideal_basis(3) == GroebnerBasis(buchberger(triple).elements, 3)

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            buchberger([ALPHA, Polynomial()])

    def test_genus_two_basis_by_hand(self, gb2):
        # the six elements, ascending by leading monomial
        expected = (
            GAMMA**2,
            BETA * GAMMA,
            ALPHA * GAMMA,
            BETA**2,
            ALPHA * BETA + GAMMA,
            ALPHA**2 + BETA,
        )
        assert gb2.elements == expected

    def test_deterministic_under_permutation_and_scaling(self):
        triple = relations_by_recursion(3).polynomials()
        reference = buchberger(triple).elements
        shuffled = buchberger([triple[2] * 7, triple[0], triple[1] / 3]).elements
        assert shuffled == reference

    @pytest.mark.parametrize("genus", range(1, 6))
    def test_result_passes_buchberger_criterion(self, genus):
        gb = relation_ideal_basis(genus)
        assert is_groebner_basis(gb.elements)

    def test_raw_triple_is_not_a_basis_beyond_genus_one(self):
        assert is_groebner_basis(relations_by_recursion(1).polynomials())
        assert not is_groebner_basis(relations_by_recursion(3).polynomials())

    @pytest.mark.parametrize("genus", range(2, 9))
    def test_genus_basis_reduces_g_times_g_plus_two_pairs(self, genus, s_polys_built):
        # as many S-polynomials as the certificate of the finished basis
        relation_ideal_basis(genus)
        assert len(s_polys_built) == genus * (genus + 2)

    def test_seeded_bases_equal_plain_ones(self):
        # one walk, each basis seeding the next, as `verify` builds them
        previous = relation_ideal_basis(1)
        for genus in range(2, 21):
            seeded = relation_ideal_basis(genus, previous)
            assert seeded.genus == genus
            assert seeded.elements == relation_ideal_basis(genus).elements
            previous = seeded

    @pytest.mark.parametrize("genus", range(2, 9))
    def test_seeded_basis_reduces_2g_plus_2_pairs(self, genus, s_polys_built):
        # c times the genus-(g-1) basis holds every lead with c; only the
        # triple's pairs with it and with each other are formed
        previous = relation_ideal_basis(genus - 1)
        s_polys_built.clear()
        relation_ideal_basis(genus, previous, relations_by_recursion(genus))
        assert len(s_polys_built) == 2 * genus + 2

    @pytest.mark.parametrize("tag", [None, 3, 5])
    def test_seed_must_be_tagged_with_the_genus_below(self, tag):
        previous = GroebnerBasis(relation_ideal_basis(4).elements, genus=tag)
        with pytest.raises(ValueError):
            relation_ideal_basis(5, previous)

    def test_triple_must_be_of_the_genus(self):
        with pytest.raises(ValueError):
            relation_ideal_basis(5, triple=relations_by_recursion(4))

    def test_pairs_chosen_by_non_decreasing_lcm_weight(self, monkeypatch):
        # on weighted homogeneous input a new lead weighs at least as much
        # as the pair that produced it, so the sugar order never goes back
        weights = []
        real = newstead.groebner._critical_pairs

        def recording(lms, seeded=0):
            for i, j in real(lms, seeded):
                weights.append(lms[i].lcm(lms[j]).weight)
                yield i, j

        monkeypatch.setattr(newstead.groebner, "_critical_pairs", recording)
        relation_ideal_basis(6)
        assert len(weights) == 48 and weights == sorted(weights)

    @pytest.mark.parametrize("genus", range(1, 7))
    def test_basis_elements_reduced_and_monic(self, genus):
        gb = relation_ideal_basis(genus)
        leads = gb.leading_monomials()
        assert list(leads) == sorted(leads, key=Monomial.sort_key)
        for i, p in enumerate(gb.elements):
            assert p.leading_coefficient() == 1
            others = [lm for j, lm in enumerate(leads) if j != i]
            for m in p.terms:
                assert not any(lm.divides(m) for lm in others)


def s_polynomial(f, g):
    """The S-polynomial of two nonzero polynomials, by the kernel's `_s_terms`."""
    return Polynomial._raw(_s_terms(_entry(f.terms), _entry(g.terms)))


def all_pairs_certificate(polys):
    """Buchberger's criterion without pair criteria: the reference."""
    polys = [p for p in polys if p]
    return all(
        not normal_form(s_polynomial(polys[i], polys[j]), polys)
        for j in range(len(polys))
        for i in range(j)
    )


def tail_tampers(elements):
    """Each copy of `elements` with one tail coefficient raised by one."""
    for i, p in enumerate(elements):
        lead = p.leading_monomial()
        for m in p.terms:
            if m != lead:
                changed = Polynomial({**p.terms, m: p.terms[m] + 1})
                yield elements[:i] + (changed,) + elements[i + 1:]


# exponents below 3 and few terms keep Buchberger on random input fast
small_monomials = st.builds(
    Monomial, st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)
nonzero_polynomials = (
    st.dictionaries(small_monomials, coefficients, min_size=1, max_size=3)
    .map(Polynomial)
)


@st.composite
def polynomial_sets(draw):
    """Small sets with duplicates, scalar multiples (equal leads), monomial
    multiples and, often, coprime leads.  A third start from a basis that
    `buchberger` computed; about three in five are Groebner bases."""
    polys = draw(st.lists(nonzero_polynomials, min_size=2, max_size=4))
    if draw(st.integers(0, 2)) == 0:
        polys = list(buchberger(polys[:3]).elements)
    for _ in range(draw(st.integers(0, 2))):
        p = draw(st.sampled_from(polys))
        factor = draw(st.sampled_from([ONE, ONE, 2 * ONE, ALPHA, GAMMA]))
        polys.append(p * factor)
    return draw(st.permutations(polys))


crowded_monomials = st.builds(
    Monomial, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)


@st.composite
def crowded_sets(draw):
    """3 to 6 polynomials whose leads have exponents at most 3, so that a
    third lead often divides the lcm of a pair and equal lcms are common.
    Most have no tail, so most S-polynomials vanish and the few left decide
    the answer: the sets on which a criterion that drops too much errs."""
    polys = []
    for lead in draw(st.lists(crowded_monomials, min_size=3, max_size=6)):
        tail = [m for m in draw(st.lists(crowded_monomials, max_size=2)) if m < lead]
        polys.append(Polynomial({lead: 1, **{m: draw(coefficients) for m in tail}}))
    return polys


class TestCertificate:
    @settings(max_examples=300, deadline=None)
    @given(polys=polynomial_sets())
    def test_agrees_with_all_pairs(self, polys):
        assert is_groebner_basis(polys) == all_pairs_certificate(polys)

    @settings(max_examples=500, deadline=None)
    @given(polys=crowded_sets())
    def test_agrees_with_all_pairs_on_crowded_leads(self, polys):
        assert is_groebner_basis(polys) == all_pairs_certificate(polys)

    @pytest.mark.parametrize("genus", range(2, 9))
    def test_genus_basis_reduces_neighbouring_pairs_only(self, genus, s_polys_built):
        # leads (a,b,c)^g have a linear resolution with g(g+2) first syzygies
        gb = relation_ideal_basis(genus)
        for basis in (gb.elements, gb):
            s_polys_built.clear()
            assert is_groebner_basis(basis)
            assert len(s_polys_built) == genus * (genus + 2)

    @pytest.mark.parametrize("genus", [3, 4, 5])
    def test_tail_tampers_rejected_like_all_pairs(self, genus):
        tampers = list(tail_tampers(relation_ideal_basis(genus).elements))
        assert tampers
        for polys in tampers:
            assert not is_groebner_basis(polys)
            assert not all_pairs_certificate(polys)

    def test_basis_and_sequence_agree(self, gb3):
        assert is_groebner_basis(gb3) and is_groebner_basis(list(gb3.elements))
        triple = GroebnerBasis(tuple(relations_by_recursion(3).polynomials()))
        assert not is_groebner_basis(triple)


class TestRedundantGenerators:
    """The one-pass interreduction must return the reduced basis whatever
    redundancy the generators carry."""

    def test_duplicates(self):
        triple = relations_by_recursion(3).polynomials()
        assert buchberger(triple + triple).elements == relation_ideal_basis(3).elements

    def test_scalar_multiples(self):
        triple = relations_by_recursion(3).polynomials()
        scaled = [p * k for p in triple for k in (Fraction(-2, 3), 1, 5)]
        assert buchberger(scaled).elements == relation_ideal_basis(3).elements

    def test_equal_leads(self):
        gens = [ALPHA**2 + BETA, 2 * ALPHA**2 + 2 * BETA, ALPHA**2, 3 * BETA]
        assert buchberger(gens).elements == (BETA, ALPHA**2)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.lists(nonzero_polynomials, min_size=1, max_size=3),
        gens=st.lists(nonzero_polynomials, min_size=1, max_size=3),
    )
    def test_any_reduced_basis_seeds_buchberger(self, seed, gens):
        # the generators' leads may divide the seed's tail terms here
        reduced = buchberger(seed).elements
        plain = buchberger(reduced + tuple(gens))
        assert buchberger(gens, seed=reduced).elements == plain.elements

    @pytest.mark.parametrize("rotation", range(4))
    def test_shuffled_with_ideal_members(self, rotation):
        f1, f2, f3 = relations_by_recursion(4).polynomials()
        gens = [f1, f2, f3, ALPHA * f1 + BETA * f2, f3 - GAMMA * f1]
        gens = gens[rotation:] + gens[:rotation]
        assert buchberger(gens).elements == relation_ideal_basis(4).elements

    def test_basis_elements_as_generators(self):
        gb = relation_ideal_basis(4)
        gens = list(reversed(gb.elements)) + [p * 2 for p in gb.elements]
        assert buchberger(gens).elements == gb.elements

    def test_unit_ideal(self):
        assert buchberger([ALPHA + ONE, ALPHA, BETA**2]).elements == (ONE,)
        assert buchberger([3 * ONE, GAMMA]).elements == (ONE,)


class TestGoldenBasis:
    def test_genus_twelve_byte_for_byte(self):
        # recorded from the restarting interreduction it replaced
        text = "".join(f"{p}\n" for p in relation_ideal_basis(12).elements)
        assert text == (GOLDEN / "basis_g12.txt").read_text(encoding="utf-8")

    # recorded from the chain-criterion pair selection the Gebauer-Moller
    # update replaced, in the text form of `basis_g12.txt`
    @pytest.mark.parametrize(
        "genus, digest",
        [
            (16, "c771d91b351646217eee5e6b8cf458604593538d0a5883bef9e43160714099f1"),
            (20, "fd793a431fa8fc2f3f75ea0909d0064f64d1826674ebb0e6e4faf412295ef7e1"),
        ],
    )
    def test_larger_genera_by_digest(self, genus, digest):
        text = "".join(f"{p}\n" for p in relation_ideal_basis(genus).elements)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestReducerCache:
    def test_reducers_built_once_per_basis(self, monkeypatch):
        gb = relation_ideal_basis(3)
        built = []
        real = newstead.groebner._make_reducers

        def counting(polys):
            built.append(1)
            return real(polys)

        monkeypatch.setattr(newstead.groebner, "_make_reducers", counting)
        for mono in top_weight_monomials(3):
            pairing_ratio(mono, gb)
        for p in relations_by_recursion(3).polynomials():
            assert not gb.normal_form(p)
        assert gb.normal_form(ALPHA**2 * BETA) == gb.normal_form(ALPHA**2 * BETA)
        assert len(built) == 1

    def test_equality_and_hash_ignore_the_cache(self):
        gb = relation_ideal_basis(3)
        twin = GroebnerBasis(gb.elements, genus=3)
        before = hash(gb)
        gb.normal_form(ALPHA**4)
        assert hash(gb) == before == hash(twin)
        assert gb == twin and repr(gb) == repr(twin)
        assert gb != GroebnerBasis(gb.elements)
        names = [f.name for f in dataclasses.fields(gb)]
        assert names == ["elements", "genus"]

    def test_sequence_and_basis_agree(self, gb3):
        p = (ALPHA + 2 * BETA - GAMMA) ** 3
        assert normal_form(p, gb3) == normal_form(p, list(gb3.elements))


class TestInitialIdeal:
    @pytest.mark.parametrize("genus", range(1, 7))
    def test_minimal_generators_are_degree_g_monomials(self, genus):
        gb = relation_ideal_basis(genus)
        generators = frozenset(gb.leading_monomials())
        assert generators == expected_initial_ideal(genus)
        assert len(generators) == comb(genus + 2, 2)

    def test_genus_one(self):
        gb = relation_ideal_basis(1)
        assert frozenset(gb.leading_monomials()) == {
            Monomial(1, 0, 0),
            Monomial(0, 1, 0),
            Monomial(0, 0, 1),
        }


class TestNormalForm:
    def test_generators_reduce_to_zero(self, gb3):
        for p in relations_by_recursion(3).polynomials():
            assert not gb3.normal_form(p)

    def test_alpha_squared_mod_genus_two(self, gb2):
        assert gb2.normal_form(ALPHA**2) == -BETA

    def test_standard_monomial_fixed(self, gb2):
        assert gb2.normal_form(GAMMA) == GAMMA

    def test_support_in_standard_monomials(self, gb3):
        standard = set(standard_monomials(gb3))
        p = (ALPHA + BETA) ** 4 - GAMMA * ALPHA
        assert set(gb3.normal_form(p).terms) <= standard

    @settings(max_examples=40, deadline=None)
    @given(p=polynomials, q=polynomials)
    def test_linear(self, gb2, p, q):
        assert gb2.normal_form(p + q) == gb2.normal_form(p) + gb2.normal_form(q)

    @settings(max_examples=40, deadline=None)
    @given(p=polynomials)
    def test_idempotent(self, gb2, p):
        once = gb2.normal_form(p)
        assert gb2.normal_form(once) == once

    @settings(max_examples=40, deadline=None)
    @given(p=polynomials, q=polynomials)
    def test_ring_morphism_to_quotient(self, gb3, p, q):
        direct = gb3.normal_form(p * q)
        staged = gb3.normal_form(gb3.normal_form(p) * gb3.normal_form(q))
        assert direct == staged

    @settings(max_examples=40, deadline=None)
    @given(p=polynomials, scales=st.lists(coefficients, min_size=10, max_size=10))
    def test_scaling_the_divisors_changes_nothing(self, gb3, p, scales):
        scaled = [c * f for c, f in zip(scales, gb3.elements, strict=True)]
        assert normal_form(p, scaled) == normal_form(p, gb3.elements)

    def test_spolynomial_by_hand(self):
        f1 = ALPHA**2 + BETA
        f2 = ALPHA * BETA + GAMMA
        assert s_polynomial(f1, f2) == BETA**2 - ALPHA * GAMMA

    @settings(max_examples=200, deadline=None)
    @given(
        f=polynomials.filter(lambda p: p and p.leading_coefficient() != 1),
        g=polynomials.filter(lambda p: p and p.leading_coefficient() != 1),
    )
    def test_spolynomial_by_polynomial_arithmetic(self, f, g):
        # (L/lm_f)*f/lc_f - (L/lm_g)*g/lc_g, L the lcm of the two leads
        big = f.leading_monomial().lcm(g.leading_monomial())

        def shifted(p):
            u = Polynomial({big // p.leading_monomial(): 1})
            return u * p / p.leading_coefficient()

        assert s_polynomial(f, g) == shifted(f) - shifted(g)


def lead_basis(leads):
    """A basis object whose elements are the given monomials."""
    return GroebnerBasis(tuple(Polynomial({m: 1}) for m in leads))


def box_scan_standard_monomials(leads):
    """Reference: every monomial of the box below the smallest pure powers
    that no lead divides, tested against each lead in turn."""
    bounds = []
    for i in range(3):
        pure = [m[i] for m in leads if m[i] == m.degree]
        if not pure:
            raise ValueError("no pure power")
        bounds.append(min(pure))
    found = [
        Monomial(a, b, c)
        for a in range(bounds[0])
        for b in range(bounds[1])
        for c in range(bounds[2])
        if not any(lm.divides(Monomial(a, b, c)) for lm in leads)
    ]
    return tuple(sorted(found, key=lambda m: (m.weight, m.sort_key())))


@st.composite
def lead_sets(draw):
    """Leads with pure powers of most variables (sometimes one is missing,
    sometimes the lead 1), mixed leads reaching past the box and repeats."""
    exponent = st.integers(0, 7)
    monomial = st.builds(Monomial, exponent, exponent, exponent)
    leads = draw(st.lists(monomial, max_size=8))
    for i in range(3):
        if draw(st.integers(0, 9)):
            power = [0, 0, 0]
            power[i] = draw(st.integers(1, 6))
            leads.append(Monomial(*power))
    if not draw(st.integers(0, 19)):
        leads.append(Monomial())
    if leads:
        leads += draw(st.lists(st.sampled_from(leads), max_size=3))
    return draw(st.permutations(leads))


class TestStandardMonomials:
    def test_genus_one(self):
        sm = standard_monomials(relation_ideal_basis(1))
        # a plain tuple: the genus is stated on the basis, not copied here
        assert type(sm) is tuple and sm == (Monomial(),)

    def test_genus_two(self, gb2):
        sm = standard_monomials(gb2)
        assert sm == (
            Monomial(0, 0, 0),
            Monomial(1, 0, 0),
            Monomial(0, 1, 0),
            Monomial(0, 0, 1),
        )

    @pytest.mark.parametrize("genus", range(1, 7))
    def test_counts_and_membership(self, genus):
        sm = standard_monomials(relation_ideal_basis(genus))
        assert len(sm) == expected_standard_count(genus)
        assert set(sm) == {
            Monomial(a, b, c)
            for a in range(genus)
            for b in range(genus)
            for c in range(genus)
            if a + b + c < genus
        }

    def test_sorted_by_weight_then_order(self, gb3):
        sm = standard_monomials(gb3)
        keys = [(m.weight, m.sort_key()) for m in sm]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("genus", range(2, 7))
    def test_socle_unique(self, genus):
        sm = standard_monomials(relation_ideal_basis(genus))
        top = [m for m in sm if m.weight == 3 * genus - 3]
        assert top == [Monomial(0, 0, genus - 1)]

    def test_infinite_quotient_rejected(self):
        with pytest.raises(ValueError):
            standard_monomials(buchberger([ALPHA]))

    def test_lead_one_leaves_nothing(self):
        gb = lead_basis([Monomial(), Monomial(5, 0, 0)])
        assert standard_monomials(gb) == ()

    def test_leads_outside_the_box_are_ignored(self):
        box = [Monomial(2, 0, 0), Monomial(0, 2, 0), Monomial(0, 0, 2)]
        outside = [Monomial(1, 2, 0), Monomial(1, 1, 5), Monomial(9, 0, 1)]
        expected = standard_monomials(lead_basis(box))
        assert len(expected) == 8
        assert standard_monomials(lead_basis(box + outside)) == expected

    @settings(max_examples=300, deadline=None)
    @given(leads=lead_sets())
    def test_staircase_matches_box_scan(self, leads):
        gb = lead_basis(leads)
        try:
            expected = box_scan_standard_monomials(leads)
        except ValueError:
            with pytest.raises(ValueError):
                standard_monomials(gb)
            return
        assert standard_monomials(gb) == expected


class TestHilbert:
    def test_genus_two(self, gb2):
        assert hilbert_series(gb2) == (1, 1, 1, 1)

    def test_genus_three(self, gb3):
        assert hilbert_series(gb3) == (1, 1, 2, 2, 2, 1, 1)

    def test_closed_form_genus_one(self):
        assert complete_intersection_hilbert(1) == (1,)

    @pytest.mark.parametrize("genus", range(1, 9))
    def test_matches_closed_form(self, genus):
        counted = hilbert_series(relation_ideal_basis(genus))
        assert counted == complete_intersection_hilbert(genus)

    @pytest.mark.parametrize("genus", range(1, 9))
    def test_palindromic_with_top_one(self, genus):
        h = complete_intersection_hilbert(genus)
        assert h == tuple(reversed(h))
        assert len(h) == 3 * genus - 2
        assert h[0] == 1 and h[-1] == 1
        assert sum(h) == comb(genus + 2, 3)

    @pytest.mark.parametrize("genus", range(1, 61))
    def test_closed_form_equals_long_division(self, genus):
        assert complete_intersection_hilbert(genus) == long_division_hilbert(genus)


def long_division_hilbert(genus):
    """The closed form by integer polynomial products and long division."""

    def times(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    def one_minus(d):
        return [1] + [0] * (d - 1) + [-1]

    num = den = [1]
    for d in (genus, genus + 1, genus + 2):
        num = times(num, one_minus(d))
    for d in (1, 2, 3):
        den = times(den, one_minus(d))
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        assert r == 0
        out[i] = q
        for j, y in enumerate(den):
            num[i + j] -= q * y
    assert not any(num)
    return tuple(out)


class TestPairing:
    def test_socle_itself(self, gb2):
        assert pairing_ratio(Monomial(0, 0, 1), gb2) == 1

    def test_spot_values_genus_two(self, gb2):
        assert pairing_ratio(Monomial(1, 1, 0), gb2) == -1
        assert pairing_ratio(Monomial(3, 0, 0), gb2) == 1

    @pytest.mark.parametrize("genus", range(2, 6))
    def test_socle_monomial_always_one(self, genus):
        gb = relation_ideal_basis(genus)
        assert pairing_ratio(Monomial(0, 0, genus - 1), gb) == 1

    def test_every_top_monomial_is_multiple_of_socle(self, gb3):
        top = 3 * 3 - 3
        socle = Monomial(0, 0, 2)
        for a in range(top + 1):
            for b in range((top - a) // 2 + 1):
                rest = top - a - 2 * b
                if rest % 3 == 0 and rest >= 0:
                    m = Monomial(a, b, rest // 3)
                    nf = gb3.normal_form(Polynomial({m: 1}))
                    assert set(nf.terms) <= {socle}

    def test_wrong_weight_rejected(self, gb2):
        with pytest.raises(ValueError):
            pairing_ratio(Monomial(1, 0, 0), gb2)

    def test_untagged_basis_rejected(self):
        gb = buchberger([ALPHA, BETA, GAMMA])
        with pytest.raises(ValueError):
            pairing_ratio(Monomial(), gb)


def socle_coefficient(mono, gb):
    """Reference: the coefficient of c^(g-1) in one full division."""
    return gb.normal_form(Polynomial({mono: 1})).coefficient(
        Monomial(0, 0, gb.genus - 1)
    )


def genus_two_twin(gb):
    """The genus-2 basis with a^2 + b replaced by a^2 + 2b."""
    elements = tuple(
        ALPHA**2 + 2 * BETA if p == ALPHA**2 + BETA else p for p in gb.elements
    )
    assert elements != gb.elements
    return GroebnerBasis(elements, genus=gb.genus)


class TestSocleMemo:
    @pytest.mark.parametrize("genus", range(2, 13))
    def test_equals_one_division(self, genus):
        gb = relation_ideal_basis(genus)
        expected = [socle_coefficient(m, gb) for m in top_weight_monomials(genus)]
        assert [pairing_ratio(m, gb) for m in top_weight_monomials(genus)] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        gens=st.one_of(
            st.lists(nonzero_polynomials, min_size=1, max_size=3),
            st.just([ONE]),
        ),
        genus=st.integers(1, 4),
        data=st.data(),
    )
    def test_equals_one_division_on_any_tagged_basis(self, gens, genus, data):
        # random generators are mostly inhomogeneous, with infinite quotients
        gb = GroebnerBasis(buchberger(gens).elements, genus=genus)
        monos = data.draw(st.permutations(top_weight_monomials(genus)))
        for m in monos:
            assert pairing_ratio(m, gb) == socle_coefficient(m, gb)

    def test_unit_ideal_pairs_to_zero(self):
        gb = GroebnerBasis(buchberger([ONE]).elements, genus=3)
        assert {pairing_ratio(m, gb) for m in top_weight_monomials(3)} == {0}

    def test_memo_belongs_to_its_basis(self):
        gb = relation_ideal_basis(2)
        fields = dataclasses.fields(gb)
        before = hash(gb)
        assert pairing_ratio(Monomial(3, 0, 0), gb) == 1
        twin = genus_two_twin(gb)
        assert pairing_ratio(Monomial(3, 0, 0), twin) == 2 == socle_coefficient(
            Monomial(3, 0, 0), twin
        )
        assert pairing_ratio(Monomial(3, 0, 0), gb) == 1
        assert dataclasses.fields(gb) == fields
        assert hash(gb) == before == hash(GroebnerBasis(gb.elements, genus=2))
        assert gb == GroebnerBasis(gb.elements, genus=2) and gb != twin

    def test_threads_race_to_fill_the_memo(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        monos = top_weight_monomials(6)
        reference = relation_ideal_basis(6)
        expected = [socle_coefficient(m, reference) for m in monos]
        gb = relation_ideal_basis(6)  # fresh: empty memo

        def rotated(k):
            return [pairing_ratio(m, gb) for m in monos[k:] + monos[:k]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(rotated, k) for k in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, got in enumerate(results):
            assert got == expected[k:] + expected[:k]

    def test_genus_twenty_without_recursion(self):
        import sys

        gb = relation_ideal_basis(20)
        monos = top_weight_monomials(20)
        assert len(monos) == 300
        spot = monos[::15] + [Monomial(0, 0, 19)]
        expected = [socle_coefficient(m, gb) for m in spot]
        fresh = relation_ideal_basis(20)
        depth = [0, 0]  # current and deepest call nesting below this frame

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                depth[0] += 1
                depth[1] = max(depth)
            elif event in ("return", "c_return", "c_exception"):
                depth[0] -= 1

        sys.setprofile(profile)
        try:
            # largest first, so that no earlier query shortens the chains
            got = {m: pairing_ratio(m, fresh) for m in sorted(monos, reverse=True)}
        finally:
            sys.setprofile(None)
        # a recursive fill nests once per step down the monomial order:
        # about 125 calls deep here
        assert depth[1] < 20
        assert [got[m] for m in spot] == expected
        assert got[Monomial(0, 0, 19)] == 1

    def test_elements_need_not_be_monic(self, gb3):
        scaled = GroebnerBasis(tuple(-3 * p for p in gb3.elements), genus=3)
        for m in top_weight_monomials(3):
            assert pairing_ratio(m, scaled) == pairing_ratio(m, gb3)


class TestIdealEqual:
    def test_permutation(self):
        assert ideal_equal([ALPHA, BETA, GAMMA], [BETA, GAMMA, ALPHA])

    def test_strict_inclusion_fails(self):
        assert not ideal_equal([ALPHA], [ALPHA**2])

    def test_scaling_irrelevant(self):
        triple = relations_by_recursion(3).polynomials()
        scaled = [p * Fraction(3, 7) for p in triple]
        assert ideal_equal(triple, scaled)

    @pytest.mark.parametrize("genus", range(1, 6))
    def test_series_derivatives_generate_same_ideal(self, genus):
        triple = relations_by_recursion(genus).polynomials()
        assert ideal_equal(triple, series_derivatives(genus))

    def test_precomputed_basis_accepted(self, gb2):
        triple = relations_by_recursion(2).polynomials()
        assert ideal_equal(triple, list(triple), basis1=gb2, basis2=gb2)


def weight_monomials(weight):
    return [
        Monomial(weight - 2 * b - 3 * c, b, c)
        for c in range(weight // 3 + 1)
        for b in range((weight - 3 * c) // 2 + 1)
    ]


def homogeneous_polynomials(weight):
    """Weighted homogeneous polynomials of one weight, zero included."""
    return st.lists(
        st.sampled_from([0, 0, 1, -2, Fraction(1, 3)]),
        min_size=len(weight_monomials(weight)),
        max_size=len(weight_monomials(weight)),
    ).map(lambda cs: Polynomial(zip(weight_monomials(weight), cs)))


@st.composite
def relation_variants(draw, genus):
    """Lists of weights g, g+1, g+2 made from the relation triple f: random
    triangular combinations (diagonal constants zero a quarter of the
    time), the triple with one coefficient changed, and the triple with a
    monomial added to its third element; then permuted and scaled."""
    f = relations_by_recursion(genus).polynomials()
    degrees = (genus, genus + 1, genus + 2)
    kind = draw(st.sampled_from(["combination", "coefficient", "third"]))
    if kind == "combination":
        h = []
        for i in range(3):
            p = draw(st.sampled_from([0, 1, -2, Fraction(1, 3)])) * f[i]
            for j in range(i):
                p = p + draw(homogeneous_polynomials(degrees[i] - degrees[j])) * f[j]
            h.append(p)
    else:
        i = 2 if kind == "third" else draw(st.integers(0, 2))
        m = draw(st.sampled_from(weight_monomials(degrees[i])))
        delta = draw(st.sampled_from([1, -1, Fraction(1, 2)]))
        h = list(f)
        h[i] = f[i] + Polynomial({m: delta})
    scales = draw(st.lists(st.sampled_from([1, -1, 3, Fraction(2, 7)]), min_size=3, max_size=3))
    return kind, draw(st.permutations([k * p for k, p in zip(scales, h)]))


@contextmanager
def buchberger_refused():
    def refuse(*args, **kwargs):
        raise AssertionError("buchberger called")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(newstead.groebner, "buchberger", refuse)
        yield


@pytest.fixture
def no_buchberger():
    with buchberger_refused():
        yield


@pytest.fixture(scope="module")
def reduced_bases():
    return {g: buchberger(relations_by_recursion(g).polynomials()).elements for g in range(1, 6)}


def series_derivatives(genus):
    phi = generating_series(genus + 2)
    return [taylor_derivative(phi, r) for r in (genus, genus + 1, genus + 2)]


class TestTriangularCertificate:
    """`ideal_equal` on triangular transitions of the relation triple and
    other lists with the same weights, each once: it decides them weight
    by weight, without Buchberger, and agrees with Buchberger."""

    @pytest.mark.parametrize("genus", range(1, 6))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_never_claims_what_buchberger_denies(self, genus, data, reduced_bases):
        kind, h = data.draw(relation_variants(genus))
        f = relations_by_recursion(genus).polynomials()
        h = [p for p in h if p]
        # reduced bases are unique, so equal bases mean equal ideals
        equal = buchberger(h).elements == reduced_bases[genus]
        # a zero generator leaves the weight-by-weight route for Buchberger
        with buchberger_refused() if len(h) == 3 else nullcontext():
            assert ideal_equal(f, h) == equal, (kind, h)

    @pytest.mark.parametrize("genus", range(1, 6))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), diagonal=st.lists(
        st.sampled_from([1, -2, Fraction(1, 3)]), min_size=3, max_size=3))
    def test_invertible_combinations_certified(self, genus, data, diagonal):
        f = relations_by_recursion(genus).polynomials()
        degrees = (genus, genus + 1, genus + 2)
        h = []
        for i in range(3):
            p = diagonal[i] * f[i]
            for j in range(i):
                p = p + data.draw(homogeneous_polynomials(degrees[i] - degrees[j])) * f[j]
            h.append(p)
        with buchberger_refused():
            assert ideal_equal(f, data.draw(st.permutations(h)))

    @pytest.mark.parametrize("genus", range(1, 31))
    def test_verify_uses_need_no_basis(self, genus, no_buchberger):
        # the inputs of the ideal-equal-series and chern-relations rows
        triple = relations_by_recursion(genus).polynomials()
        assert ideal_equal(triple, series_derivatives(genus))
        graded = quotient_chern(genus + 2)
        classes = [graded.component(r) for r in (genus, genus + 1, genus + 2)]
        assert ideal_equal(classes, triple)

    @pytest.mark.parametrize("genus", range(3, 8))
    def test_tampered_third_derivative_rejected(self, genus, no_buchberger):
        derivatives = series_derivatives(genus)
        derivatives[2] = derivatives[2] + ALPHA ** (genus + 2)
        triple = relations_by_recursion(genus).polynomials()
        assert not ideal_equal(triple, derivatives)
        assert not ideal_equal(derivatives, triple)

    def test_lists_of_different_lengths_fall_back(self):
        assert ideal_equal([ALPHA, ALPHA**2], [ALPHA])

    def test_inhomogeneous_generator_falls_back(self):
        assert ideal_equal([ALPHA + BETA], [ALPHA + BETA])

    def test_repeated_degrees_fall_back(self):
        assert ideal_equal([ALPHA**2, BETA], [BETA, ALPHA**2])

    def test_zero_generators_filtered_out(self, no_buchberger):
        assert ideal_equal([ALPHA, Polynomial(), BETA], [BETA, ALPHA, Polynomial()])

    def test_strict_inclusion_not_certified(self):
        assert not ideal_equal([ALPHA], [ALPHA**2])
        with buchberger_refused():
            assert not ideal_equal([ALPHA, BETA], [ALPHA, ALPHA**2])
            assert not ideal_equal([ALPHA, ALPHA**2], [ALPHA, BETA])

    def test_dependent_column_leaves_diagonal_undetermined(self, no_buchberger):
        # a^2 = a*a already lies in the weight-2 part of (a): the second
        # generator is redundant on both sides, and the ideals are equal
        assert ideal_equal([ALPHA, ALPHA**2], [ALPHA, ALPHA**2])


def mixed_weight_polynomials(genus):
    """Random polynomials with a term at or below weight 3g-3 and one above."""
    top = 3 * genus - 3
    box = [Monomial(a, b, c) for a in range(5) for b in range(5) for c in range(5)]
    below = st.sampled_from([m for m in box if m.weight <= top])
    above = st.sampled_from([m for m in box if m.weight > top])
    return st.builds(
        lambda p, lo, hi, x, y: p + Polynomial({lo: x, hi: y}),
        polynomials, below, above, coefficients, coefficients,
    )


class TestGenusTruncation:
    @settings(max_examples=40, deadline=None)
    @given(p=polynomials)
    def test_matches_untruncated_normal_form(self, gb2, gb3, p):
        # c^3 has weight 9, above 3g-3 for both genera
        p = p + GAMMA**3
        for gb in (gb2, gb3):
            assert gb.normal_form(p) == normal_form(p, gb.elements)

    @pytest.mark.parametrize("genus", [2, 3, 4])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), k=coefficients)
    def test_linear_and_idempotent_off_homogeneous(self, genus, data, k):
        nf = relation_ideal_basis(genus).normal_form
        p = data.draw(mixed_weight_polynomials(genus))
        q = data.draw(mixed_weight_polynomials(genus))
        assert nf(p + q) == nf(p) + nf(q)
        assert nf(k * p) == k * nf(p)
        assert nf(nf(p)) == nf(p)

    @pytest.mark.parametrize(
        "elements, genus, p",
        [((), 0, ALPHA), ((ALPHA,), -2, BETA)],
        ids=["genus-0", "genus-minus-2"],
    )
    def test_genus_tag_below_one_rejected(self, elements, genus, p):
        # 3g-3 < 0 would drop every term, so the basis would contain p
        with pytest.raises(ValueError, match="genus tag must be at least 1"):
            GroebnerBasis(elements, genus=genus).contains(p)

    def test_untagged_basis_is_not_truncated(self):
        # a^7 - 1 is not weighted homogeneous, so no weight may be dropped
        assert buchberger([ALPHA**7 - ONE]).normal_form(ALPHA**7) == ONE


class TestGammaInclusion:
    @pytest.mark.parametrize("genus", range(1, 6))
    def test_gamma_multiples_land_in_next_ideal(self, genus):
        next_gb = relation_ideal_basis(genus + 1)
        for p in relations_by_recursion(genus).polynomials():
            # untruncated: at low genus c*p lies above weight 3g-3, where
            # the tagged basis would drop it without reducing
            assert not normal_form(GAMMA * p, next_gb.elements)


class TestUniquenessSupport:
    @pytest.mark.parametrize("genus", range(1, 7))
    def test_tails_are_standard(self, genus):
        gb = relation_ideal_basis(genus)
        standard = set(standard_monomials(gb))
        for p in relations_by_recursion(genus).polynomials():
            lead = p.leading_monomial()
            assert all(m in standard for m in p.terms if m != lead)

    @pytest.mark.parametrize("genus", range(1, 9))
    def test_gamma_free_leads_where_gamma_free_terms_exist(self, genus):
        # tie-break consequence: a basis element containing a gamma-free
        # monomial has a gamma-free lead
        for p in relation_ideal_basis(genus).elements:
            if any(m.c == 0 for m in p.terms):
                assert p.leading_monomial().c == 0


class TestIdealChain:
    @pytest.mark.parametrize("genus", range(1, 7))
    def test_next_ideal_contained_in_current(self, genus):
        # each genus g+1 generator is a combination of genus g generators
        gb = relation_ideal_basis(genus)
        for p in relations_by_recursion(genus + 1).polynomials():
            assert not gb.normal_form(p)


class TestConcurrentUse:
    def test_shared_basis_across_threads(self, gb3):
        from concurrent.futures import ThreadPoolExecutor

        polys = [(ALPHA + BETA) ** k + GAMMA ** (k % 3) for k in range(12)]
        expected = [gb3.normal_form(p) for p in polys]
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(gb3.normal_form, polys))
        assert results == expected

    def test_threads_race_to_build_the_reducers(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        polys = [(ALPHA + BETA) ** k + GAMMA ** (k % 3) for k in range(16)]
        expected = [relation_ideal_basis(3).normal_form(p) for p in polys]
        gb = relation_ideal_basis(3)  # fresh: no reducer list built yet
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(gb.normal_form, p) for p in polys]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected


class TestRetainedMemory:
    def test_query_passes_retain_nothing(self):
        # the mix of calls a benchmark pass of ideal queries makes: basis,
        # every top-weight pairing, Hilbert series, ideal equality with the
        # basis, and normal forms below, at and above the top weight; each
        # pass drops its results, so memory held afterwards is the package's
        import gc
        import tracemalloc

        inputs = [
            (ALPHA + Fraction(1, 3) * BETA - 2 * GAMMA) ** k + Fraction(5, 7) * BETA**k
            for k in (4, 9, 15, 22)
        ]

        def one_pass():
            for genus in (6, 7):
                gb = relation_ideal_basis(genus)
                triple = relations_by_recursion(genus)
                for m in top_weight_monomials(genus):
                    pairing_ratio(m, gb)
                hilbert_series(gb)
                ideal_equal(triple.polynomials(), gb.elements, basis1=gb, basis2=gb)
                for p in inputs:
                    gb.normal_form(p)

        one_pass()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                one_pass()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 16 * 1024
