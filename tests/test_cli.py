import argparse
import errno
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import newstead.cache
import newstead.chern
import newstead.cli
import newstead.groebner
import newstead.series
import newstead.verify
from newstead.betti import default_s_max
from newstead.chern import GradedClass
from newstead.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    MAX_GENUS,
    MAX_WEIGHT,
    _parse_genus_field,
    build_parser,
    load_cached_basis,
    main,
    save_cached_basis,
)
from newstead.groebner import (
    ORDER_TAG,
    GroebnerBasis,
    expected_initial_ideal,
    is_groebner_basis,
    is_relation_basis,
    normal_form,
    relation_ideal_basis,
)
from newstead.relations import relations_by_recursion
from newstead.ring import ALPHA, BETA, ONE, ZERO, Monomial, Polynomial
from newstead.textform import parse_poly

GOLDEN = Path(__file__).resolve().parent / "golden"


def tail_terms(gb):
    """(element index, tail monomial) for every tail term of the basis."""
    return [
        (i, m)
        for i, p in enumerate(gb.elements)
        for m in sorted(p.terms, key=Monomial.sort_key)
        if m != p.leading_monomial()
    ]


GENUS5 = relation_ideal_basis(5)
GENUS5_TAILS = tail_terms(GENUS5)
GENUS4_TAILS = tail_terms(relation_ideal_basis(4))


def sorted_leads(genus):
    """The leads of the genus-g basis, ascending, as the border check takes them."""
    return sorted(expected_initial_ideal(genus), key=Monomial.sort_key)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, timeout=None):
    """`python -m newstead ...` in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "newstead", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestRelationsVerb:
    def test_json_schema_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "relations", "-g", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {
            "genus": 2,
            "f1": "a^2 + b",
            "f2": "a*b + c",
            "f3": "a*c",
            "weighted_degrees": [2, 3, 4],
            "initial_terms": ["a^2", "a*b", "a*c"],
            "paths_agree": True,
        }

    def test_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "relations", "-g", "3", "--format", "json")
        _, second, _ = run_cli(capsys, "relations", "-g", "3", "--format", "json")
        assert first == second

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "relations", "-g", "2")
        assert code == EXIT_OK
        assert "f1 = a^2 + b" in out
        assert "paths agree: yes" in out

    def test_latex(self, capsys):
        code, out, _ = run_cli(capsys, "relations", "-g", "2", "--format", "latex")
        assert code == EXIT_OK
        assert "f_{1}^{2} = \\alpha^{2} + \\beta" in out


class TestQueryVerbs:
    def test_nf(self, capsys):
        code, out, _ = run_cli(capsys, "nf", "-g", "2", "--poly", "a^2")
        assert code == EXIT_OK
        assert out.strip() == "-b"

    def test_nf_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "nf", "-g", "2", "--poly", "a^2", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["normal_form"] == "-b"
        assert payload["input"] == "a^2"

    def test_basis(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "-g", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["count"] == 4
        assert payload["monomials"] == ["1", "a", "b", "c"]

    def test_hilbert(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "-g", "2")
        assert code == EXIT_OK
        assert out.strip() == "1 1 1 1"

    def test_pairing(self, capsys):
        code, out, _ = run_cli(capsys, "pairing", "-g", "2", "--mono", "a*b")
        assert code == EXIT_OK
        assert out.strip() == "-1"

    def test_pairing_wrong_weight(self, capsys):
        code, _, err = run_cli(capsys, "pairing", "-g", "2", "--mono", "a")
        assert code == EXIT_USAGE
        assert "weighted degree" in err

    def test_groebner(self, capsys):
        code, out, _ = run_cli(capsys, "groebner", "-g", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["elements"] == [
            "c^2",
            "b*c",
            "a*c",
            "b^2",
            "a*b + c",
            "a^2 + b",
        ]
        assert len(payload["initial_ideal"]) == 6

    def test_chern_quotient(self, capsys):
        code, out, _ = run_cli(
            capsys, "chern", "-g", "2", "--target", "q", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["components"][0] == "1"
        assert payload["components"][1] == "a"
        assert payload["components"][2] == "1/2*a^2 + 1/2*b"

    def test_chern_tangent(self, capsys):
        code, out, _ = run_cli(capsys, "chern", "-g", "2", "--target", "ng")
        assert code == EXIT_OK
        assert "c_1 = 2*a" in out
        assert "c_2 = 2*a^2 - b" in out

    @pytest.mark.parametrize("genus, target", [(8, "ng"), (10, "q")])
    def test_chern_golden_json(self, capsys, genus, target):
        code, out, _ = run_cli(
            capsys, "chern", "-g", str(genus), "--target", target, "--format", "json"
        )
        assert code == EXIT_OK
        golden = GOLDEN / f"chern_g{genus}_{target}.json"
        assert out == golden.read_text(encoding="utf-8")

    def test_chern_genus_twenty_digest(self, capsys):
        # recorded from the product-form expansion (the oracle in
        # test_chern.py), which takes about 25 s at this genus
        code, out, _ = run_cli(
            capsys, "chern", "-g", "20", "--target", "ng", "--format", "json"
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "3d7dbd3076818ae6827b838ebb1df924f868fd7ed3b4120392015315deeb6ae8"
        )

    def test_nf_above_top_weight_is_zero_in_bounded_time(self):
        # a^100000 has weight far above 3g-3 = 6, where the quotient is zero
        proc = run_module("nf", "-g", "3", "--poly", "a^100000", timeout=60)
        assert (proc.returncode, proc.stdout.strip()) == (EXIT_OK, "0")

    def test_betti(self, capsys):
        code, out, _ = run_cli(capsys, "betti", "-g", "3", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["values"] == [[0, 1], [1, 1], [2, 2], [3, 16], [4, 2]]
        assert payload["cross_check"] is True


class TestExitCodes:
    def test_parse_error_is_three(self, capsys):
        code, _, err = run_cli(capsys, "nf", "-g", "2", "--poly", "a +")
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_unknown_variable_is_parse_error(self, capsys):
        code, _, _ = run_cli(capsys, "nf", "-g", "2", "--poly", "x^2")
        assert code == EXIT_PARSE

    def test_bad_genus_is_usage(self, capsys):
        code, _, _ = run_cli(capsys, "relations", "-g", "zero")
        assert code == EXIT_USAGE

    def test_genus_below_one_is_usage(self, capsys):
        code, _, _ = run_cli(capsys, "relations", "-g", "0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("nf", "-g", str(MAX_GENUS + 1), "--poly", "a"),
            ("verify", "-g", f"1..{MAX_GENUS + 1}"),
        ],
    )
    def test_genus_above_maximum_is_usage_at_once(self, argv):
        proc = run_module(*argv, timeout=30)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: genus {MAX_GENUS + 1} is above the supported maximum {MAX_GENUS}\n"
        )

    def test_genus_at_maximum_is_accepted(self):
        assert _parse_genus_field(str(MAX_GENUS), allow_range=False) == (MAX_GENUS,) * 2
        assert _parse_genus_field(f"1..{MAX_GENUS}", allow_range=True) == (1, MAX_GENUS)

    @pytest.mark.parametrize("weight", [MAX_WEIGHT + 1, 100000])
    def test_max_weight_above_maximum_is_usage_at_once(self, weight):
        proc = run_module(
            "chern", "-g", "3", "--target", "q", "--max-weight", str(weight),
            timeout=30,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: --max-weight {weight} is above the supported maximum {MAX_WEIGHT}\n"
        )

    def test_max_weight_at_maximum_is_accepted(self, capsys, monkeypatch):
        asked = []

        def fake(max_weight):
            asked.append(max_weight)
            return GradedClass((ONE,))

        monkeypatch.setattr(newstead.cli, "quotient_chern", fake)
        code, _, _ = run_cli(capsys, "chern", "-g", "3", "--max-weight", str(MAX_WEIGHT))
        assert (code, asked) == (EXIT_OK, [MAX_WEIGHT])

    @pytest.mark.parametrize("s_max", ["-5", str(default_s_max(3) + 1), "100000000"])
    def test_betti_s_max_outside_proven_range_is_usage_at_once(self, s_max):
        proc = run_module("betti", "-g", "3", "--s-max", s_max, timeout=30)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: --s-max {s_max} is outside 0..{default_s_max(3)} for genus 3\n"
        )

    @pytest.mark.parametrize("s_max", [0, default_s_max(3)])
    def test_betti_s_max_within_proven_range(self, capsys, s_max):
        code, out, _ = run_cli(
            capsys, "betti", "-g", "3", "--s-max", str(s_max), "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["values"] == [[0, 1], [1, 1], [2, 2], [3, 16], [4, 2]][
            : s_max + 1
        ]

    # int() alone reads fullwidth digits, '_' and '+'
    @pytest.mark.parametrize(
        "argv",
        [
            ("hilbert", "-g", "\uff13"),
            ("hilbert", "-g", "1_0"),
            ("verify", "-g", "1..+2"),
            ("chern", "-g", "2", "--max-weight", "\uff13"),
        ],
    )
    def test_non_ascii_integer_argument_is_usage(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")

    @pytest.mark.parametrize(
        "verb, flag, text",
        [
            ("nf", "--poly", "a^{}"),
            ("nf", "--poly", "{}*a"),
            ("pairing", "--mono", "a^{}"),
            ("pairing", "--mono", "{}*a^6"),
        ],
    )
    def test_huge_integer_literal_is_parse_error(self, verb, flag, text):
        # int() refuses strings past sys.get_int_max_str_digits() (4300)
        proc = run_module(verb, "-g", "3", flag, text.format("9" * 5000), timeout=30)
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == ""
        assert proc.stderr.startswith("parse error: integer literal of 5000 digits")

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    @pytest.mark.parametrize(
        "poly",
        ["{0}*a^12", " + ".join(["{0}*b"] * 11)],
        ids=["result-too-long", "input-too-long"],
    )
    def test_nf_coefficient_too_long_to_print_is_usage(self, capsys, poly, fmt):
        # 4299 digits parse, but str() of an int refuses more than 4300: the
        # normal form of N*a^12 at g=5 and the input 11*N*b have more
        text = poly.format("9" * 4299)
        code, out, err = run_cli(
            capsys, "nf", "-g", "5", "--poly", text, "--format", fmt
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: a coefficient has too many digits to print\n"

    @pytest.mark.parametrize("verb, flag", [("nf", "--poly"), ("pairing", "--mono")])
    # superscript two and Arabic-Indic two: str.isdigit() holds, uint is 0-9
    @pytest.mark.parametrize("digit", ["\u00b2", "\u0662"])
    def test_non_ascii_digit_is_parse_error(self, verb, flag, digit):
        proc = run_module(verb, "-g", "3", flag, f"a^{digit}", timeout=30)
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == ""
        assert proc.stderr == (
            f"parse error: unexpected character {digit!r} at position 2\n"
        )

    def test_range_outside_verify_is_usage(self, capsys):
        code, _, _ = run_cli(capsys, "relations", "-g", "1..3")
        assert code == EXIT_USAGE

    def test_tangent_needs_genus_two(self, capsys):
        code, _, _ = run_cli(capsys, "chern", "-g", "1", "--target", "ng")
        assert code == EXIT_USAGE

    def test_betti_needs_genus_two(self, capsys):
        code, _, _ = run_cli(capsys, "betti", "-g", "1")
        assert code == EXIT_USAGE

    def test_unknown_command_is_usage(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_genus_is_usage(self, capsys):
        assert main(["relations"]) == EXIT_USAGE


class TestVerify:
    def test_small_range_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-g", "1..3")
        assert code == EXIT_OK
        assert "g=1 relations-dual-path: ok" in out
        assert "g=2->g=3 gamma-inclusion: ok" in out
        assert "global functional-equation: ok" in out
        assert "FAILED" not in out

    def test_output_ordered_by_genus(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "-g", "1..3")
        lines = [line for line in out.splitlines() if line.startswith("g=")]
        genera = [line.split()[0] for line in lines]
        assert genera == sorted(genera, key=lambda s: (len(s), s))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-g", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["all_ok"] is True
        assert any(c["name"] == "initial-ideal" for c in payload["checks"])

    def test_single_genus_accepted(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "-g", "2")
        assert code == EXIT_OK

    def test_bad_range_is_usage(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "-g", "3..1")
        assert code == EXIT_USAGE

    def test_jobs_flag_is_gone(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "-g", "2", "--jobs", "2")
        assert code == EXIT_USAGE

    def test_golden_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-g", "1..4")
        assert code == EXIT_OK
        assert out == (GOLDEN / "verify_1_4.txt").read_text(encoding="utf-8")

    def test_golden_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-g", "1..4", "--format", "json")
        assert code == EXIT_OK
        assert out == (GOLDEN / "verify_1_4.json").read_text(encoding="utf-8")

    def test_betti_monotone_can_fail(self, capsys, monkeypatch):
        table = (1, 2, 1, 16, 2)
        monkeypatch.setattr(newstead.verify, "newstead_betti", lambda g: table)
        code, out, _ = run_cli(capsys, "verify", "-g", "3")
        assert code == EXIT_CHECK_FAILED
        assert "g=3 betti-monotone: FAILED" in out
        assert "verify: 20/21 checks passed, 1 FAILED" in out

    def test_dual_path_certifies_series_product(self, monkeypatch):
        # the generating series and the definition route share the series
        # product, so a fault there must show up in the recursion, which
        # uses no series; the run's one series reaches t^25, so the lossy
        # product zeroes every coefficient from t^4 on, where the genus-2
        # triple already reads D_4
        product = newstead.series._product

        def lossy(p, q):
            result = product(p, q)
            return result[:4] + (ZERO,) * (len(result) - 4)

        monkeypatch.setattr(newstead.series, "_product", lossy)
        checks, all_ok = newstead.verify.run_verify(2, 3)
        assert not all_ok
        assert ("g=2", "relations-dual-path", False, "") in checks
        assert ("g=3", "relations-dual-path", False, "") in checks

    def test_functional_equation_can_fail(self, monkeypatch):
        # k E_k = sum_j j s_j E_(k-j) is the exponential; dividing by k + 1
        # instead gives a series off the differential equation
        def wrong_exp(s):
            e = [ONE]
            for k in range(1, len(s)):
                total = ZERO
                for j in range(1, k + 1):
                    total = total + j * s[j] * e[k - j]
                e.append(total / (k + 1))
            return tuple(e)

        monkeypatch.setattr(newstead.series, "series_exp", wrong_exp)
        checks, all_ok = newstead.verify.run_verify(2, 3)
        assert not all_ok
        assert ("global", "functional-equation", False, "order 25") in checks
        assert ("g=2", "relations-dual-path", False, "") in checks
        assert ("g=3", "relations-dual-path", False, "") in checks

    def test_chern_matches_series_can_fail(self, monkeypatch):
        honest = newstead.verify.quotient_chern

        def tampered(max_weight):
            graded = honest(max_weight)
            components = list(graded.components)
            components[1] = 2 * components[1]
            return GradedClass(tuple(components))

        monkeypatch.setattr(newstead.verify, "quotient_chern", tampered)
        checks, all_ok = newstead.verify.run_verify(2, 3)
        assert not all_ok
        assert ("g=2", "chern-matches-series", False, "") in checks
        assert ("g=3", "chern-matches-series", False, "") in checks

    # a^(g+2) lies in the genus-g ideal only for g = 1, 2, where the quotient
    # is zero above weight 3g-3 < g+2; a tamper by it must fail from g = 3 on
    @pytest.mark.parametrize("genus", range(1, 6))
    def test_tamper_lies_in_the_ideal_only_at_low_genus(self, genus):
        tamper = ALPHA ** (genus + 2)
        in_ideal = not normal_form(tamper, relation_ideal_basis(genus).elements)
        assert in_ideal == (genus <= 2)

    def test_ideal_equal_series_can_fail(self, monkeypatch):
        honest = newstead.verify.taylor_derivative
        checks, oks = [], []
        for g in range(1, 6):
            # verify asks for D_g, D_{g+1}, D_{g+2}: tamper the last of them
            def tampered(s, r, top=g + 2):
                d = honest(s, r)
                return d + ALPHA**r if r == top else d

            monkeypatch.setattr(newstead.verify, "taylor_derivative", tampered)
            genus_checks, ok = newstead.verify.run_verify(g, g)
            checks += genus_checks
            oks.append(ok)
        assert not all(oks)
        for g in range(1, 6):
            assert (f"g={g}", "ideal-equal-series", g <= 2, "") in checks

    def test_pairing_spot_values_can_fail(self, monkeypatch):
        checks, all_ok = newstead.verify.run_verify(2, 2)
        assert all_ok and ("g=2", "pairing-spot-values", True, "") in checks
        honest = newstead.verify.relation_basis_cached

        def tampered(genus, cache_dir, **kwargs):
            # a^2 + b -> a^2 + 2b: a^3 pairs to 2, not 1
            gb = honest(genus, cache_dir, **kwargs)
            elements = tuple(
                ALPHA**2 + 2 * BETA if p == ALPHA**2 + BETA else p
                for p in gb.elements
            )
            assert elements != gb.elements
            return GroebnerBasis(elements, genus=genus)

        monkeypatch.setattr(newstead.verify, "relation_basis_cached", tampered)
        checks, all_ok = newstead.verify.run_verify(2, 2)
        assert not all_ok
        assert ("g=2", "pairing-spot-values", False, "") in checks
        assert ("g=2", "pairing-socle", True, "") in checks

    def test_uniqueness_support_can_fail(self, monkeypatch):
        checks, all_ok = newstead.verify.run_verify(3, 3)
        assert all_ok and ("g=3", "uniqueness-support", True, "") in checks
        honest = newstead.verify.relation_basis_cached

        def tampered(genus, cache_dir, **kwargs):
            # a*b becomes a lead, so f1 = a^3 + 5ab + 4c has a tail term
            # outside the staircase
            gb = honest(genus, cache_dir, **kwargs)
            return GroebnerBasis(gb.elements + (ALPHA * BETA,), genus=genus)

        monkeypatch.setattr(newstead.verify, "relation_basis_cached", tampered)
        checks, all_ok = newstead.verify.run_verify(3, 3)
        assert not all_ok
        assert ("g=3", "uniqueness-support", False, "") in checks

    @pytest.mark.parametrize(
        "index, mono", GENUS5_TAILS, ids=[f"{i}-{m}" for i, m in GENUS5_TAILS]
    )
    def test_initial_ideal_certifies_the_basis(self, monkeypatch, index, mono):
        # leads unchanged: only the certificate tells this basis from the true one
        p = GENUS5.elements[index]
        elements = list(GENUS5.elements)
        elements[index] = Polynomial({**p.terms, mono: p.terms[mono] + 1})
        tampered = GroebnerBasis(tuple(elements), genus=5)
        monkeypatch.setattr(
            newstead.verify,
            "relation_basis_cached",
            lambda genus, cache_dir, **kwargs: tampered,
        )
        checks, all_ok = newstead.verify.run_verify(5, 5)
        assert not all_ok
        assert ("g=5", "initial-ideal", False, "") in checks

    @pytest.mark.parametrize(
        "index, mono", GENUS4_TAILS, ids=[f"{i}-{m}" for i, m in GENUS4_TAILS]
    )
    def test_wrong_seed_never_passes_as_the_next_basis(
        self, monkeypatch, index, mono
    ):
        # the genus-4 basis, one tail coefficient changed, seeds genus 5
        honest = newstead.verify.relation_basis_cached
        built = {}

        def tampered(genus, cache_dir, **kwargs):
            gb = honest(genus, cache_dir, **kwargs)
            if genus == 4:
                elements = list(gb.elements)
                p = elements[index]
                elements[index] = Polynomial({**p.terms, mono: p.terms[mono] + 1})
                gb = GroebnerBasis(tuple(elements), genus=4)
            built[genus] = gb
            return gb

        monkeypatch.setattr(newstead.verify, "relation_basis_cached", tampered)
        checks, all_ok = newstead.verify.run_verify(4, 5)
        assert not all_ok
        assert ("g=4", "initial-ideal", False, "") in checks
        assert ("g=5", "initial-ideal", False, "") in checks or (
            built[5].elements == GENUS5.elements
        )

    def test_chern_relations_can_fail(self, monkeypatch):
        honest = newstead.verify.quotient_chern

        def tampered(max_weight):
            graded = honest(max_weight)
            components = list(graded.components)
            components[-1] = components[-1] + ALPHA**max_weight
            return GradedClass(tuple(components))

        monkeypatch.setattr(newstead.verify, "quotient_chern", tampered)
        checks, all_ok = newstead.verify.run_verify(1, 5)
        assert not all_ok
        for g in range(1, 6):
            assert (f"g={g}", "chern-relations", g <= 2, "") in checks
            # both Chern rows read the one class, and c_(g+2) is no longer
            # the t^(g+2) coefficient at any genus
            assert (f"g={g}", "chern-matches-series", False, "") in checks

    def test_one_quotient_class_per_genus(self, monkeypatch):
        # wrap every newstead.* binding, as the benchmark tracer does
        honest = newstead.chern.quotient_chern
        weights = []

        def counted(max_weight):
            weights.append(max_weight)
            return honest(max_weight)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "newstead":
                if getattr(module, "quotient_chern", None) is honest:
                    monkeypatch.setattr(module, "quotient_chern", counted)
        newstead.verify.run_verify(1, 10)
        assert weights == [g + 2 for g in range(1, 11)]  # 10 calls, one per genus

    @pytest.mark.parametrize("lo, hi, order", [(1, 10, 25), (5, 8, 25), (24, 24, 26)])
    def test_one_generating_series_per_run(self, monkeypatch, lo, hi, order):
        # every genus and the functional equation read one series
        honest = newstead.series.generating_series
        orders = []

        def counted(n):
            orders.append(n)
            return honest(n)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "newstead":
                if getattr(module, "generating_series", None) is honest:
                    monkeypatch.setattr(module, "generating_series", counted)
        checks, all_ok = newstead.verify.run_verify(lo, hi)
        assert all_ok and ("global", "functional-equation", True, "order 25") in checks
        assert orders == [order]

    def test_one_staircase_per_genus(self, monkeypatch):
        honest = newstead.groebner.standard_monomials
        genera = []

        def counted(gb):
            genera.append(gb.genus)
            return honest(gb)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "newstead":
                if getattr(module, "standard_monomials", None) is honest:
                    monkeypatch.setattr(module, "standard_monomials", counted)
        assert newstead.verify.run_verify(1, 6)[1]
        assert genera == [1, 2, 3, 4, 5, 6]

    def test_one_border_check_per_genus_when_warm(self, tmp_path, monkeypatch):
        # the load and the initial-ideal row certify one basis object
        cache_dir = str(tmp_path)
        assert newstead.verify.run_verify(1, 3, cache_dir)[1]  # primes the cache
        honest = newstead.groebner._is_border_basis
        genera = []

        def counted(elements, leads):
            genera.append(leads[0].degree)
            return honest(elements, leads)

        def refuse(*args, **kwargs):
            raise AssertionError("Buchberger run on a warm verify")

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "newstead":
                if getattr(module, "_is_border_basis", None) is honest:
                    monkeypatch.setattr(module, "_is_border_basis", counted)
        monkeypatch.setattr(newstead.groebner, "buchberger", refuse)
        assert newstead.verify.run_verify(1, 3, cache_dir)[1]
        assert genera == [1, 2, 3]

    def test_gamma_inclusion_can_fail(self, monkeypatch):
        # a f1 = f1' - g^2 f2 by the recursion, and f2 (lead a^(g-1) b) is no
        # multiple of f1' (lead a^(g+1)), the only generator of weight g+1
        monkeypatch.setattr(newstead.verify, "GAMMA", ALPHA)
        checks, all_ok = newstead.verify.run_verify(1, 5)
        assert not all_ok
        failed = [(scope, name) for scope, name, ok, _ in checks if not ok]
        assert failed == [(f"g={g}->g={g + 1}", "gamma-inclusion") for g in range(1, 5)]

    def test_range_starts_mid_walk(self):
        dropped = {"g=1", "g=2", "g=1->g=2", "g=2->g=3"}
        checks, all_ok = newstead.verify.run_verify(1, 5)
        assert all_ok
        assert newstead.verify.run_verify(3, 5) == (
            [check for check in checks if check[0] not in dropped], True
        )

    @pytest.mark.parametrize("socle", [True, False])
    def test_tangent_vanishing_can_fail(self, monkeypatch, socle):
        honest = newstead.chern.tangent_chern

        def tampered(genus, max_weight):
            # c^(g-1) spans the socle, weight 3g-3; c b^(g-2) is a standard
            # monomial of weight 2g-1, the lowest weight the row checks
            m = Monomial(0, 0, genus - 1) if socle else Monomial(0, genus - 2, 1)
            graded = honest(genus, max_weight)
            components = list(graded.components)
            components[m.weight] = components[m.weight] + Polynomial({m: 1})
            return GradedClass(tuple(components))

        monkeypatch.setattr(newstead.chern, "tangent_chern", tampered)
        checks, all_ok = newstead.verify.run_verify(2, 5)
        assert not all_ok
        failed = {(scope, name) for scope, name, ok, _ in checks if not ok}
        assert failed == {(f"g={g}", "tangent-vanishing") for g in range(2, 6)}


class TestCache:
    def test_round_trip_bit_exact(self, tmp_path):
        gb = relation_ideal_basis(3)
        path = save_cached_basis(tmp_path, gb)
        assert path == tmp_path / "ideal_g3.json"
        assert json.loads(path.read_text(encoding="utf-8"))["order_tag"] == ORDER_TAG
        loaded = load_cached_basis(tmp_path, 3)
        assert loaded is not None
        assert loaded.elements == gb.elements
        assert loaded.genus == 3

    def test_missing_file(self, tmp_path):
        assert load_cached_basis(tmp_path, 4) is None

    def test_corrupt_json_rejected(self, tmp_path):
        gb = relation_ideal_basis(2)
        path = save_cached_basis(tmp_path, gb)
        path.write_text("{ not json", encoding="utf-8")
        assert load_cached_basis(tmp_path, 2) is None

    def test_wrong_content_rejected(self, tmp_path):
        gb = relation_ideal_basis(2)
        path = save_cached_basis(tmp_path, gb)
        payload = json.loads(path.read_text(encoding="utf-8"))
        # the reduced basis of (a, b, c)^2: the right shape and a Groebner
        # basis, but of the wrong ideal; fails revalidation, never trusted
        leads = sorted(expected_initial_ideal(2))
        payload["elements"] = [str(Polynomial({m: 1})) for m in leads]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert load_cached_basis(tmp_path, 2) is None

    def test_tampered_element_fails_spolynomial_check(self, tmp_path):
        gb = relation_ideal_basis(2)
        path = save_cached_basis(tmp_path, gb)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["elements"][-1] = "a^2 + c"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert load_cached_basis(tmp_path, 2) is None

    def test_version_mismatch_rejected(self, tmp_path):
        gb = relation_ideal_basis(2)
        path = save_cached_basis(tmp_path, gb)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert load_cached_basis(tmp_path, 2) is None

    @pytest.mark.parametrize(
        "payload",
        [
            lambda text: text.replace('"version": 1', '"version": ' + "9" * 5000),
            lambda text: text.replace('"a^2 + b"', '"a^2 + ' + "9" * 5000 + '*b"'),
        ],
        ids=["huge-version", "huge-coefficient"],
    )
    def test_huge_number_rejected(self, tmp_path, capsys, payload):
        # json.loads and int() raise a plain ValueError past 4300 digits
        path = save_cached_basis(tmp_path, relation_ideal_basis(2))
        text = path.read_text(encoding="utf-8")
        path.write_text(payload(text), encoding="utf-8")
        assert path.read_text(encoding="utf-8") != text
        assert load_cached_basis(tmp_path, 2) is None
        cache = ("--cache-dir", str(tmp_path))
        code, out, _ = run_cli(capsys, "hilbert", "-g", "2", *cache)
        assert (code, out.strip()) == (EXIT_OK, "1 1 1 1")
        assert load_cached_basis(tmp_path, 2) is not None  # rewritten

    def test_wrong_length_rejected_before_parsing(self, tmp_path, monkeypatch):
        # a genus-g basis has one element per monomial of degree g
        save_cached_basis(tmp_path, relation_ideal_basis(2))
        calls = []
        parse = newstead.cache.parse_poly

        def counting(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(newstead.cache, "parse_poly", counting)
        assert load_cached_basis(tmp_path, 2) is not None
        assert len(calls) == 6
        for elements in (lambda old: old[:-1], lambda old: old + old[-1:]):
            calls.clear()
            self._poison(tmp_path, 2, elements)
            assert load_cached_basis(tmp_path, 2) is None
            assert calls == []

    @pytest.mark.parametrize("entry", [[1], {"x": 1}], ids=["list", "dict"])
    def test_non_string_element_recomputed(self, tmp_path, capsys, entry):
        # the right length, but an element the parser cannot take
        self._poison(tmp_path, 2, lambda old: old[:-1] + [entry])
        assert load_cached_basis(tmp_path, 2) is None
        cache = ("--cache-dir", str(tmp_path))
        code, out, _ = run_cli(capsys, "hilbert", "-g", "2", *cache)
        assert (code, out.strip()) == (EXIT_OK, "1 1 1 1")
        assert load_cached_basis(tmp_path, 2) is not None  # rewritten

    def test_long_element_list_recomputed(self, tmp_path, capsys):
        self._poison(tmp_path, 2, lambda old: ["a^2 + b"] * 200_000)
        cache = ("--cache-dir", str(tmp_path))
        code, out, _ = run_cli(capsys, "hilbert", "-g", "2", *cache)
        assert (code, out.strip()) == (EXIT_OK, "1 1 1 1")
        assert load_cached_basis(tmp_path, 2) is not None  # rewritten

    @pytest.mark.parametrize("verb", [("groebner", "-g", "3"), ("verify", "-g", "3..3")])
    def test_deeply_nested_json_recomputed(self, tmp_path, capsys, verb):
        # json.loads raises RecursionError, not ValueError, on deep nesting
        code, fresh, _ = run_cli(capsys, *verb)
        path = newstead.cache.cache_path(tmp_path, 3)
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert load_cached_basis(tmp_path, 3) is None
        assert run_cli(capsys, *verb, "--cache-dir", str(tmp_path)) == (code, fresh, "")
        assert code == EXIT_OK
        assert load_cached_basis(tmp_path, 3) is not None  # rewritten

    def _poison(self, tmp_path, genus, elements):
        path = save_cached_basis(tmp_path, relation_ideal_basis(genus))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["elements"] = elements(payload["elements"])
        path.write_text(json.dumps(payload), encoding="utf-8")

    def test_unit_ideal_rejected(self, tmp_path, capsys):
        # a Groebner basis containing the generators, but of the unit ideal
        self._poison(tmp_path, 3, lambda old: ["1"])
        assert load_cached_basis(tmp_path, 3) is None
        cache = ("--cache-dir", str(tmp_path))
        code, out, _ = run_cli(capsys, "pairing", "-g", "3", "--mono", "a^6", *cache)
        assert (code, out.strip()) == (EXIT_OK, "28/3")
        code, out, _ = run_cli(capsys, "hilbert", "-g", "3", *cache)
        assert (code, out.strip()) == (EXIT_OK, "1 1 2 2 2 1 1")
        assert load_cached_basis(tmp_path, 3) is not None  # rewritten

    def test_unreduced_element_rejected(self, tmp_path, capsys):
        # 2*a*f1 lies in the ideal, but is neither monic nor reduced
        extra = "2*a^4 + 10*a^2*b + 8*a*c"
        self._poison(tmp_path, 3, lambda old: old + [extra])
        assert load_cached_basis(tmp_path, 3) is None
        code, out, _ = run_cli(
            capsys, "groebner", "-g", "3", "--cache-dir", str(tmp_path)
        )
        assert code == EXIT_OK
        assert "basis (10 elements):" in out
        assert "a^4" not in out

    def test_redundant_element_rejected(self, tmp_path):
        # monic, tail-reduced and in the ideal, but its lead a^4 is a
        # multiple of the lead a^3: not the reduced basis
        gb = relation_ideal_basis(3)
        extra = ALPHA ** 4 - gb.normal_form(ALPHA ** 4)
        self._poison(tmp_path, 3, lambda old: old + [str(extra)])
        assert load_cached_basis(tmp_path, 3) is None

    @pytest.mark.parametrize("index", range(10))
    def test_scaled_element_rejected(self, tmp_path, index):
        # 2*f spans the same ideal as f; bare monomials such as c^3 have no
        # tail for the border check to read, so only the lead coefficient
        # tells the file from the reduced basis
        def tamper(old):
            old[index] = str(2 * parse_poly(old[index]))
            return old

        self._poison(tmp_path, 3, tamper)
        assert load_cached_basis(tmp_path, 3) is None

    def test_tail_term_of_huge_degree_rejected(self, tmp_path):
        # an exponent past what integer arithmetic packs must not get that far
        self._poison(tmp_path, 3, lambda old: [old[0] + " + a^40000"] + old[1:])
        assert load_cached_basis(tmp_path, 3) is None

    def test_unsorted_basis_rejected(self, tmp_path):
        self._poison(tmp_path, 3, lambda old: old[::-1])
        assert load_cached_basis(tmp_path, 3) is None

    def test_huge_pure_powers_rejected_in_bounded_time(self, tmp_path):
        # monic, sorted and reduced, but its leads span a box of 10^15
        # candidate standard monomials
        self._poison(tmp_path, 3, lambda old: ["c^100000", "b^100000", "a^100000"])
        proc = run_module(
            "hilbert", "-g", "3", "--cache-dir", str(tmp_path), timeout=60
        )
        assert (proc.returncode, proc.stdout.strip()) == (EXIT_OK, "1 1 2 2 2 1 1")
        assert load_cached_basis(tmp_path, 3) is not None  # rewritten

    def test_hostile_denominators_rejected_in_bounded_time(self, tmp_path, capsys):
        # every tail coefficient over its own 4000-digit odd denominator:
        # parses and has genus shape, so the border check must reject it
        odd = iter(range(10**3999 + 1, 10**4000, 2))

        def hostile(old):
            return [
                str(Polynomial({
                    m: q if m == p.leading_monomial() else Fraction(1, next(odd))
                    for m, q in p.terms.items()
                }))
                for p in relation_ideal_basis(8).elements
            ]

        self._poison(tmp_path, 8, hostile)
        raw = json.loads(newstead.cache.cache_path(tmp_path, 8).read_text())["elements"]
        elements = [parse_poly(t) for t in raw]
        assert newstead.groebner._has_genus_shape(elements, sorted_leads(8))
        _, fresh, _ = run_cli(capsys, "hilbert", "-g", "8")
        proc = run_module("hilbert", "-g", "8", "--cache-dir", str(tmp_path), timeout=10)
        assert (proc.returncode, proc.stdout) == (EXIT_OK, fresh)
        assert load_cached_basis(tmp_path, 8) is not None  # rewritten

    @pytest.mark.parametrize("genus", range(1, 13))
    def test_border_check_accepts_true_bases(self, genus):
        gb = relation_ideal_basis(genus)
        assert newstead.groebner._is_border_basis(gb.elements, sorted_leads(genus))
        assert is_relation_basis(gb, relations_by_recursion(genus))
        assert is_groebner_basis(gb.elements)

    def test_relation_basis_needs_the_triples_tag(self):
        triple = relations_by_recursion(4)
        elements = relation_ideal_basis(4).elements
        assert is_relation_basis(GroebnerBasis(elements, genus=4), triple)
        for genus in (None, 3, 5):
            assert not is_relation_basis(GroebnerBasis(elements, genus=genus), triple)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), genus=st.sampled_from([3, 4, 5]))
    def test_border_check_agrees_with_buchberger(self, data, genus):
        # changed or dropped tail coefficients keep the genus shape
        elements = list(relation_ideal_basis(genus).elements)
        tails = [
            (i, m) for i, p in enumerate(elements)
            for m in p.terms if m != p.leading_monomial()
        ]
        changes = data.draw(st.lists(st.sampled_from(tails), min_size=1, max_size=2))
        for i, m in changes:
            c = data.draw(st.sampled_from([0, 1, -2, Fraction(1, 7)]))
            elements[i] = Polynomial({**elements[i].terms, m: c})
        leads = sorted_leads(genus)
        assert newstead.groebner._has_genus_shape(elements, leads)
        assert newstead.groebner._is_border_basis(elements, leads) == is_groebner_basis(
            elements
        )

    def test_load_runs_no_buchberger(self, tmp_path, monkeypatch):
        bases = {g: relation_ideal_basis(g) for g in range(1, 9)}
        for gb in bases.values():
            save_cached_basis(tmp_path, gb)

        def refuse(*args, **kwargs):
            raise AssertionError("Buchberger run on a cache load")

        for module in (newstead.groebner, newstead.cache):
            for name in ("buchberger", "is_groebner_basis"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        for g, gb in bases.items():
            assert newstead.cache.relation_basis_cached(g, str(tmp_path)) == gb

    @pytest.mark.parametrize(
        "index, mono", GENUS5_TAILS, ids=[f"{i}-{m}" for i, m in GENUS5_TAILS]
    )
    def test_any_tail_coefficient_change_rejected(self, tmp_path, index, mono):
        def tamper(old):
            p = GENUS5.elements[index]
            old[index] = str(Polynomial({**p.terms, mono: p.terms[mono] + 1}))
            return old

        self._poison(tmp_path, 5, tamper)
        assert load_cached_basis(tmp_path, 5) is None

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), genus=st.sampled_from([3, 4]))
    def test_perturbed_file_never_loads_another_basis(self, data, genus):
        gb = relation_ideal_basis(genus)
        elements = list(gb.elements)
        tails = [
            (i, m) for i, p in enumerate(elements)
            for m in p.terms if m != p.leading_monomial()
        ]
        kind = data.draw(st.sampled_from(["coefficient", "add", "drop", "swap"]))
        if kind == "swap":
            i, j = data.draw(st.lists(
                st.integers(0, len(elements) - 1), min_size=2, max_size=2, unique=True
            ))
            elements[i], elements[j] = elements[j], elements[i]
        elif kind == "add":
            i = data.draw(st.integers(0, len(elements) - 1))
            exponent = st.integers(0, genus)
            m = data.draw(st.builds(Monomial, exponent, exponent, exponent).filter(
                lambda m: m not in elements[i].terms
            ))
            c = data.draw(st.integers(-3, 3).filter(bool))
            elements[i] = elements[i] + Polynomial({m: c})
        else:
            i, m = data.draw(st.sampled_from(tails))
            old = elements[i].terms[m]
            c = 0 if kind == "drop" else data.draw(
                st.integers(-3, 3).filter(lambda c: c != old)
            )
            elements[i] = Polynomial({**elements[i].terms, m: c})
        with tempfile.TemporaryDirectory() as cache_dir:
            self._poison(cache_dir, genus, lambda old: [str(p) for p in elements])
            loaded = load_cached_basis(cache_dir, genus)
        assert loaded is None or loaded == gb

    def test_reducers_built_once_per_load(self, tmp_path, monkeypatch):
        gb = relation_ideal_basis(6)
        save_cached_basis(tmp_path, gb)
        expected = gb.normal_form(ALPHA**9)
        built = []
        real = newstead.groebner._make_reducers

        def counting(polys):
            built.append(1)
            return real(polys)

        monkeypatch.setattr(newstead.groebner, "_make_reducers", counting)
        loaded = load_cached_basis(tmp_path, 6)
        assert loaded == gb
        assert loaded.normal_form(ALPHA**9) == expected
        assert len(built) == 1

    def test_unusable_cache_dir_is_usage(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        for cache_dir in (blocker, blocker / "sub"):
            code, out, err = run_cli(
                capsys, "hilbert", "-g", "2", "--cache-dir", str(cache_dir)
            )
            assert code == EXIT_USAGE
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_cache_write_is_usage(self, tmp_path, capsys, monkeypatch):
        # a full disk raises an OSError that names no file
        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(newstead.cache.json, "dump", full_disk)
        code, out, err = run_cli(
            capsys, "groebner", "-g", "2", "--cache-dir", str(tmp_path)
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: unusable --cache-dir: ")
        assert err.count("\n") == 1
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("verb", ["groebner", "verify"])
    def test_empty_cache_dir_is_usage(self, tmp_path, monkeypatch, capsys, verb):
        # an empty path would otherwise name the working directory
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, verb, "-g", "2", "--cache-dir", "")
        assert (code, out) == (EXIT_USAGE, "")
        assert "--cache-dir: must not be empty" in err
        assert list(tmp_path.iterdir()) == []

    def test_cli_populates_and_reuses_cache(self, tmp_path, capsys):
        code, first, _ = run_cli(
            capsys, "groebner", "-g", "2", "--cache-dir", str(tmp_path),
            "--format", "json",
        )
        assert code == EXIT_OK
        assert (tmp_path / "ideal_g2.json").exists()
        code, second, _ = run_cli(
            capsys, "groebner", "-g", "2", "--cache-dir", str(tmp_path),
            "--format", "json",
        )
        assert code == EXIT_OK
        assert first == second

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_at_cache_path_is_recomputed(self, tmp_path):
        # opening a FIFO for reading blocks until a writer comes
        path = newstead.cache.cache_path(tmp_path, 2)
        os.mkfifo(path)
        proc = run_module(
            "hilbert", "-g", "2", "--cache-dir", str(tmp_path), timeout=20
        )
        assert (proc.returncode, proc.stdout) == (EXIT_OK, "1 1 1 1\n")
        assert path.is_file() and not path.is_symlink()
        assert load_cached_basis(tmp_path, 2) == relation_ideal_basis(2)

    def test_file_over_the_size_limit_is_replaced(self, tmp_path):
        # a valid file padded with blanks loads at the limit; one character
        # over it, it is a miss, recomputed and rewritten
        gb = relation_ideal_basis(3)
        path = save_cached_basis(tmp_path, gb)
        text = path.read_text(encoding="utf-8")
        limit = newstead.cache._MAX_CHARS
        path.write_text(text.ljust(limit), encoding="utf-8")
        assert load_cached_basis(tmp_path, 3) == gb
        path.write_text(text.ljust(limit + 1), encoding="utf-8")
        assert load_cached_basis(tmp_path, 3) is None
        assert newstead.cache.relation_basis_cached(3, str(tmp_path)) == gb
        assert path.read_text(encoding="utf-8") == text

    def test_cli_recovers_from_corrupt_cache(self, tmp_path, capsys):
        run_cli(capsys, "groebner", "-g", "2", "--cache-dir", str(tmp_path))
        (tmp_path / "ideal_g2.json").write_text("garbage", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "nf", "-g", "2", "--poly", "a^2", "--cache-dir", str(tmp_path)
        )
        assert code == EXIT_OK
        assert out.strip() == "-b"


GENUS_OPTION = (("-g", "--genus"), True, None, None, "genus (verify: range A..B)")
FORMAT_OPTION = (("--format",), False, "text", ("text", "json", "latex"), None)
CACHE_OPTION = (("--cache-dir",), False, None, None, "Groebner basis cache")

# (option strings, required, default, choices, help) of each verb's options
PARSER_SHAPE = {
    "relations": [GENUS_OPTION, FORMAT_OPTION],
    "groebner": [GENUS_OPTION, FORMAT_OPTION, CACHE_OPTION],
    "nf": [
        GENUS_OPTION,
        FORMAT_OPTION,
        CACHE_OPTION,
        (("--poly",), True, None, None, "polynomial expression"),
    ],
    "basis": [GENUS_OPTION, FORMAT_OPTION, CACHE_OPTION],
    "hilbert": [GENUS_OPTION, FORMAT_OPTION, CACHE_OPTION],
    "pairing": [
        GENUS_OPTION,
        FORMAT_OPTION,
        CACHE_OPTION,
        (("--mono",), True, None, None, "monomial expression"),
    ],
    "chern": [
        GENUS_OPTION,
        FORMAT_OPTION,
        (("--target",), False, "q", ("q", "ng"), None),
        (("--max-weight",), False, None, None, None),
    ],
    "betti": [GENUS_OPTION, FORMAT_OPTION, (("--s-max",), False, None, None, None)],
    "verify": [GENUS_OPTION, FORMAT_OPTION, CACHE_OPTION],
}


def verb_parsers():
    (verbs,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return verbs.choices


class TestParser:
    def test_verbs_in_order(self):
        assert list(verb_parsers()) == list(PARSER_SHAPE)

    @pytest.mark.parametrize("verb", list(PARSER_SHAPE))
    def test_options(self, verb):
        options = [
            (
                tuple(action.option_strings),
                action.required,
                action.default,
                tuple(action.choices) if action.choices else None,
                action.help,
            )
            for action in verb_parsers()[verb]._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        assert options == PARSER_SHAPE[verb]

    def test_cache_dir_only_where_a_basis_is_built(self):
        with_cache = {
            verb
            for verb, parser in verb_parsers().items()
            if "--cache-dir" in parser._option_string_actions
        }
        assert with_cache == {"groebner", "nf", "basis", "hilbert", "pairing", "verify"}


class TestRendering:
    # only relations, groebner, nf and chern have a LaTeX form
    @pytest.mark.parametrize(
        "argv",
        [
            ("basis", "-g", "3"),
            ("hilbert", "-g", "3"),
            ("pairing", "-g", "3", "--mono", "c^2"),
            ("betti", "-g", "3"),
            ("verify", "-g", "1..2"),
        ],
    )
    def test_latex_falls_back_to_text(self, capsys, argv):
        text = run_cli(capsys, *argv)
        latex = run_cli(capsys, *argv, "--format", "latex")
        assert latex == text
        assert text[0] == EXIT_OK and text[1]


class TestEntryPoint:
    def test_python_dash_m(self):
        proc = run_module("nf", "-g", "2", "--poly", "a^2")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "-b"
