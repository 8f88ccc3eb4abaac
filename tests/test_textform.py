from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from newstead.ring import ALPHA, BETA, GAMMA, ONE, Monomial, Polynomial
from newstead.textform import ParseError, parse_poly, to_latex

monomials = st.builds(
    Monomial, st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)
)
coefficients = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**6
).filter(bool)
polynomials = st.dictionaries(monomials, coefficients, max_size=8).map(Polynomial)

VARS = "one of a, b, c, alpha, beta, gamma"
# grammar characters, names, and characters the tokenizer must reject:
# a superscript and an Arabic-Indic digit (str.isdigit holds for both), a
# non-ASCII letter, and symbols outside the grammar
PARSER_ALPHABET = list("abcx+-*/^0123 \t$\x00_.") + [
    "alpha", "beta", "gamma", "12", "\u00b2", "\u00e9", "\u0662"
]


class TestParse:
    def test_simple(self):
        assert parse_poly("a^2 + b") == ALPHA**2 + BETA

    def test_fraction_coefficient(self):
        assert parse_poly("-1/2*a*b + c") == Fraction(-1, 2) * ALPHA * BETA + GAMMA

    def test_long_names(self):
        assert parse_poly("alpha*beta^2 - gamma") == ALPHA * BETA**2 - GAMMA

    def test_whitespace_insignificant(self):
        assert parse_poly("  a ^ 2  +  b ") == ALPHA**2 + BETA

    def test_constants(self):
        assert parse_poly("3") == 3 * ONE
        assert parse_poly("-2/4") == Fraction(-1, 2) * ONE
        assert parse_poly("0") == Polynomial()

    def test_leading_sign(self):
        assert parse_poly("+a") == ALPHA
        assert parse_poly("-a") == -ALPHA

    def test_repeated_terms_accumulate(self):
        assert parse_poly("a + a") == 2 * ALPHA
        assert parse_poly("a - a") == Polynomial()

    def test_repeated_factors_accumulate(self):
        assert parse_poly("a*a^2") == ALPHA**3

    def test_coefficient_times_factors(self):
        assert parse_poly("2*a^3*c") == 2 * ALPHA**3 * GAMMA

    def test_exponent_zero(self):
        assert parse_poly("a^0") == ONE


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(ParseError):
            parse_poly("")

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_poly("a + x")

    def test_unknown_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_poly("a + $")

    # str.isdigit() holds for these, but the grammar's uint is ASCII 0-9
    @pytest.mark.parametrize(
        "text, position",
        [("a^\u00b2", 2), ("a^\u0662", 2), ("a^1\u00b2", 3), ("\u0663*a", 0)],
    )
    def test_non_ascii_digit(self, text, position):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_poly(text)
        assert err.value.position == position

    def test_dangling_sign(self):
        with pytest.raises(ParseError):
            parse_poly("a +")

    def test_missing_operator(self):
        with pytest.raises(ParseError, match="expected '\\+' or '-'"):
            parse_poly("a b")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_poly("1/0")

    def test_missing_exponent(self):
        with pytest.raises(ParseError):
            parse_poly("a^")

    def test_star_needs_factor(self):
        with pytest.raises(ParseError):
            parse_poly("2*")

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_poly("a + $")
        assert err.value.position == 4

    def test_expected_reported(self):
        with pytest.raises(ParseError) as err:
            parse_poly("")
        assert err.value.expected == "a term"

    @pytest.mark.parametrize(
        "text, message, position, expected",
        [
            ("", "empty input at position 0 (expected a term)", 0, "a term"),
            ("   ", "empty input at position 3 (expected a term)", 3, "a term"),
            ("a + $", "unexpected character '$' at position 4", 4, None),
            ("a^\u00b2", "unexpected character '\u00b2' at position 2", 2, None),
            ("a b", "unexpected token 'b' at position 2 (expected '+' or '-')",
             2, "'+' or '-'"),
            ("2 a", "unexpected token 'a' at position 2 (expected '+' or '-')",
             2, "'+' or '-'"),
            ("a +", "unexpected end of input at position 3"
             " (expected a coefficient or variable)", 3, "a coefficient or variable"),
            ("1/", "unexpected end of input at position 2 (expected a denominator)",
             2, "a denominator"),
            ("1/a", "unexpected token 'a' at position 2 (expected a denominator)",
             2, "a denominator"),
            ("1/0", "zero denominator at position 2", 2, None),
            ("a^", "unexpected end of input at position 2 (expected an exponent)",
             2, "an exponent"),
            ("a^-1", "unexpected token '-' at position 2 (expected an exponent)",
             2, "an exponent"),
            ("2*", f"unexpected end of input at position 2 (expected {VARS})",
             2, VARS),
            ("2*3", f"unexpected token 3 at position 2 (expected {VARS})", 2, VARS),
            ("x", f"unknown variable 'x' at position 0 (expected {VARS})", 0, VARS),
            ("\u00e9", f"unknown variable '\u00e9' at position 0 (expected {VARS})",
             0, VARS),
            ("*a", "unexpected token '*' at position 0"
             " (expected a coefficient or variable)", 0, "a coefficient or variable"),
            ("+-a", "unexpected token '-' at position 1"
             " (expected a coefficient or variable)", 1, "a coefficient or variable"),
            ("a*", f"unexpected end of input at position 2 (expected {VARS})",
             2, VARS),
            ("a^2^3", "unexpected token '^' at position 3 (expected '+' or '-')",
             3, "'+' or '-'"),
            ("1/2/3", "unexpected token '/' at position 3 (expected '+' or '-')",
             3, "'+' or '-'"),
            ("a2", "unexpected token 2 at position 1 (expected '+' or '-')",
             1, "'+' or '-'"),
            ("alphabeta",
             f"unknown variable 'alphabeta' at position 0 (expected {VARS})", 0, VARS),
        ],
    )
    def test_every_error_path(self, text, message, position, expected):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert (str(err.value), err.value.position, err.value.expected) == (
            message, position, expected
        )

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(PARSER_ALPHABET), max_size=30).map("".join))
    def test_raises_nothing_but_parse_error(self, text):
        try:
            result = parse_poly(text)
        except ParseError:
            return
        assert isinstance(result, Polynomial)


class TestRoundTrip:
    @given(polynomials)
    def test_parse_of_str(self, p):
        assert parse_poly(str(p)) == p

    def test_zero(self):
        assert parse_poly(str(Polynomial())) == Polynomial()


class TestLatex:
    def test_examples(self):
        assert to_latex(ALPHA**2 + BETA) == "\\alpha^{2} + \\beta"
        assert (
            to_latex(Fraction(-1, 2) * ALPHA**3 * GAMMA)
            == "-\\frac{1}{2}\\alpha^{3}\\gamma"
        )
        assert to_latex(Polynomial()) == "0"

    def test_constant_and_signs(self):
        assert to_latex(ALPHA - ONE) == "\\alpha - 1"
        assert to_latex(Fraction(5, 6) * ONE) == "\\frac{5}{6}"
