"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line; run with `pytest -v tests/test_acceptance.py -s`
to see them.  All checks are exact rational arithmetic; where a runtime
bound is part of the contract it is asserted too.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from newstead.betti import (
    betti_cross_check,
    enumerate_generator_counts,
    newstead_betti,
)
from newstead.chern import (
    chern_matches_series,
    quotient_chern,
    tangent_chern,
    tangent_vanishing_check,
)
from newstead.cli import load_cached_basis, main, save_cached_basis
from newstead.groebner import (
    complete_intersection_hilbert,
    expected_initial_ideal,
    expected_standard_count,
    hilbert_series,
    ideal_equal,
    relation_ideal_basis,
    standard_monomials,
)
from newstead.relations import (
    initial_terms,
    iter_recursion_triples,
    relations_by_definition,
)
from newstead.ring import ALPHA, GAMMA, Monomial, Polynomial
from newstead.series import (
    functional_equation_residual,
    generating_series,
    taylor_derivative,
)
from newstead.textform import parse_poly

GB_RANGE = range(1, 11)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def recursion_triples():
    return {t.genus: t for t in iter_recursion_triples(20)}


@pytest.fixture(scope="module")
def bases():
    start = time.monotonic()
    computed = {g: relation_ideal_basis(g) for g in GB_RANGE}
    elapsed = time.monotonic() - start
    return computed, elapsed


@pytest.fixture(scope="module")
def phi25():
    return generating_series(25)


def test_criterion_01_dual_path_relations(recursion_triples):
    start = time.monotonic()
    phi = generating_series(22)
    mismatches = [
        g
        for g in range(1, 21)
        if recursion_triples[g] != relations_by_definition(g, phi)
    ]
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 10.0
    report(1, "dual-path relation equality g=1..20", ok, f"{elapsed:.2f}s")
    assert not mismatches, f"paths disagree at {mismatches}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_criterion_02_initial_terms_and_degrees(recursion_triples):
    bad = []
    for g in range(1, 21):
        triple = recursion_triples[g]
        if initial_terms(triple) != (
            Monomial(g, 0, 0),
            Monomial(g - 1, 1, 0),
            Monomial(g - 1, 0, 1),
        ):
            bad.append((g, "initial terms"))
        if triple.weighted_degrees() != (g, g + 1, g + 2):
            bad.append((g, "weighted degrees"))
    report(2, "initial terms and weighted degrees g=1..20", not bad)
    assert not bad, bad


def test_criterion_03_initial_ideal_shape(bases):
    computed, elapsed = bases
    bad = []
    for g in GB_RANGE:
        gb = computed[g]
        leads = frozenset(gb.leading_monomials())
        if leads != expected_initial_ideal(g):
            bad.append((g, "initial ideal"))
        if len(leads) != comb(g + 2, 2):
            bad.append((g, "generator count"))
        if len(standard_monomials(gb)) != expected_standard_count(g):
            bad.append((g, "standard monomial count"))
    ok = not bad and elapsed < 60.0
    report(3, "initial ideal shape g=1..10", ok, f"bases built in {elapsed:.2f}s")
    assert not bad, bad
    assert elapsed < 60.0, f"basis computation took {elapsed:.2f}s, budget 60s"


def test_criterion_04_hilbert_series(bases):
    computed, _ = bases
    bad = []
    for g in GB_RANGE:
        h = hilbert_series(computed[g])
        if h != complete_intersection_hilbert(g):
            bad.append((g, "closed form"))
        if h != tuple(reversed(h)):
            bad.append((g, "palindrome"))
        if len(h) != 3 * g - 2 or h[-1] != 1:
            bad.append((g, "top degree"))
    report(4, "Hilbert series closed form g=1..10", not bad)
    assert not bad, bad


def test_criterion_05_ideal_identifications(bases, recursion_triples):
    computed, _ = bases
    phi = generating_series(12)
    bad = []
    for g in GB_RANGE:
        gens = recursion_triples[g].polynomials()
        gb = computed[g]
        derivatives = [taylor_derivative(phi, r) for r in (g, g + 1, g + 2)]
        if not ideal_equal(gens, derivatives, basis1=gb):
            bad.append((g, "series derivatives"))
        graded = quotient_chern(g + 2)
        classes = [graded.component(r) for r in (g, g + 1, g + 2)]
        if not ideal_equal(gens, classes, basis1=gb):
            bad.append((g, "chern classes"))
    report(5, "ideal identifications g=1..10", not bad)
    assert not bad, bad


def test_criterion_06_chern_equals_series():
    series = {g: generating_series(g + 2) for g in range(1, 13)}
    bad = [
        g for g, phi in series.items()
        if not chern_matches_series(quotient_chern(g + 2), phi)
    ]
    report(6, "Chern components equal series coefficients g=1..12", not bad)
    assert not bad, bad


def test_criterion_07_functional_equation(phi25):
    residual = functional_equation_residual(phi25)
    ok = len(residual) == 25 and not any(residual)
    report(7, "functional equation residual zero through order 24", ok)
    assert ok


def test_criterion_08_tangent_vanishing(bases):
    computed, _ = bases
    bad = []
    for g in range(2, 9):
        gb = computed[g]
        if not tangent_vanishing_check(gb):
            bad.append((g, "vanishing"))
        if gb.normal_form(tangent_chern(g, 1).component(1)) != 2 * ALPHA:
            bad.append((g, "negative control"))
    report(8, "tangent class vanishing above weight 2g-2, g=2..8", not bad)
    assert not bad, bad


def test_criterion_09_betti_cross_check():
    bad = []
    for g in range(2, 11):
        if not betti_cross_check(g):
            bad.append((g, "cross-check"))
        table = newstead_betti(g)
        if table[0] != 1 or table[1] != 1:
            bad.append((g, "seeds"))
    # the recursion must reproduce the direct generator count at g=2, s=2
    # (the enumeration oracle gives 1, the classical value for that space)
    oracle = enumerate_generator_counts(2, 2)
    if newstead_betti(2)[2] != oracle or oracle != 1:
        bad.append((2, "g_4 spot value"))
    report(9, "Betti recursion vs enumeration g=2..10", not bad)
    assert not bad, bad


def test_criterion_10_gamma_inclusion(bases, recursion_triples):
    computed, _ = bases
    bad = []
    for g in range(1, 10):
        next_gb = computed[g + 1]
        for p in recursion_triples[g].polynomials():
            if next_gb.normal_form(GAMMA * p):
                bad.append(g)
                break
    report(10, "gamma times ideal lands in next ideal g=1..9", not bad)
    assert not bad, bad


def test_criterion_11_socle_pairing(bases):
    from newstead.groebner import pairing_ratio

    computed, _ = bases
    bad = []
    for g in range(2, 9):
        gb = computed[g]
        top = 3 * g - 3
        socle = Monomial(0, 0, g - 1)
        standard_top = [m for m in standard_monomials(gb) if m.weight == top]
        if standard_top != [socle]:
            bad.append((g, "socle uniqueness"))
        for a in range(top + 1):
            for b in range((top - a) // 2 + 1):
                rest = top - a - 2 * b
                if rest < 0 or rest % 3:
                    continue
                nf = gb.normal_form(Polynomial({Monomial(a, b, rest // 3): 1}))
                if not set(nf.terms) <= {socle}:
                    bad.append((g, f"non-socle residue of {Monomial(a, b, rest // 3)}"))
    gb2 = computed[2]
    if pairing_ratio(Monomial(1, 1, 0), gb2) != -1:
        bad.append((2, "pairing(ab)"))
    if pairing_ratio(Monomial(3, 0, 0), gb2) != 1:
        bad.append((2, "pairing(a^3)"))
    report(11, "socle pairing g=2..8 with spot values", not bad)
    assert not bad, bad


def _random_polynomial(rng: random.Random) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono = Monomial(rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 20))
        num = rng.randint(-(10**6), 10**6)
        den = rng.randint(1, 10**6)
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(num, den)
    return Polynomial(terms)


def test_criterion_12_tooling(tmp_path, capsys):
    rng = random.Random(20240817)
    round_trip_failures = 0
    for _ in range(10_000):
        p = _random_polynomial(rng)
        if parse_poly(str(p)) != p:
            round_trip_failures += 1
    start = time.monotonic()
    code = main(["verify", "-g", "1..8", "--cache-dir", str(tmp_path / "cache")])
    elapsed = time.monotonic() - start
    capsys.readouterr()  # swallow the verify report
    gb = relation_ideal_basis(4)
    save_cached_basis(tmp_path / "cache2", gb)
    loaded = load_cached_basis(tmp_path / "cache2", 4)
    cache_exact = loaded is not None and loaded.elements == gb.elements
    ok = round_trip_failures == 0 and code == 0 and elapsed < 120.0 and cache_exact
    report(
        12,
        "tooling: 1e4 round-trips, verify 1..8, cache",
        ok,
        f"verify {elapsed:.2f}s",
    )
    assert round_trip_failures == 0
    assert code == 0, "verify 1..8 must exit 0"
    assert elapsed < 120.0, f"verify took {elapsed:.2f}s, budget 120s"
    assert cache_exact
