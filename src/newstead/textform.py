"""Parsing and LaTeX rendering of the canonical polynomial text form.

Grammar (whitespace is insignificant):

    poly    := [sign] term { sign term }
    term    := coeff [ "*" factors ] | factors
    factors := factor { "*" factor }
    factor  := var [ "^" uint ]
    coeff   := uint [ "/" uint ]
    var     := "a" | "b" | "c" | "alpha" | "beta" | "gamma"
    sign    := "+" | "-"

`ring.Polynomial.__str__` emits exactly this grammar, with the short
variable spellings and terms in descending monomial order, so
``parse_poly(str(p)) == p`` for every polynomial p.  `parse_poly` reads
the grammar in one loop over the token list, and `to_latex` renders the
same sign and term layout through `Polynomial._render`, with Greek letters
and ``\\frac`` coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .ring import Monomial, Polynomial

__all__ = ["ParseError", "parse_poly", "to_latex"]

_VARS = {
    "a": 0,
    "alpha": 0,
    "b": 1,
    "beta": 1,
    "c": 2,
    "gamma": 2,
}

_VAR_HINT = "one of a, b, c, alpha, beta, gamma"


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with source position."""

    def __init__(self, message: str, position: int, expected: Optional[str] = None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens: List[Tuple[str, object, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if "0" <= ch <= "9":  # isdigit() also takes superscripts and non-Latin digits
            end = pos + 1
            while end < n and "0" <= text[end] <= "9":
                end += 1
            try:
                value = int(text[pos:end])
            except ValueError:  # beyond sys.get_int_max_str_digits()
                raise ParseError(
                    f"integer literal of {end - pos} digits is too long", pos
                ) from None
            tokens.append(("int", value, pos))
            pos = end
        elif ch.isalpha():
            end = pos + 1
            while end < n and text[end].isalpha():
                end += 1
            tokens.append(("name", text[pos:end], pos))
            pos = end
        elif ch in "+-*/^":
            tokens.append(("op", ch, pos))
            pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, n))
    return tokens


def parse_poly(text: str) -> Polynomial:
    """Parse a polynomial expression; raises ParseError on bad input."""
    tokens = _tokenize(text)
    i = 0

    def at(kind: str, ops: str = "") -> bool:
        k, value, _ = tokens[i]
        return k == kind and (not ops or value in ops)

    def take(expected: Optional[str], kind: str, ops: str = ""):
        nonlocal i
        k, value, pos = tokens[i]
        if not at(kind, ops):
            what = "end of input" if k == "end" else f"token {value!r}"
            raise ParseError(f"unexpected {what}", pos, expected)
        i += 1
        return value

    if at("end"):
        raise ParseError("empty input", tokens[0][2], expected="a term")
    terms: dict = {}
    sign = take(None, "op") if at("op", "+-") else "+"
    while True:
        coeff = Fraction(1)
        more = at("name")  # a term without coefficient starts with a factor
        if not more:
            numerator = take("a coefficient or variable", "int")
            denominator = 1
            if at("op", "/"):
                i += 1
                dpos = tokens[i][2]
                denominator = take("a denominator", "int")
                if denominator == 0:
                    raise ParseError("zero denominator", dpos)
            coeff = Fraction(numerator, denominator)
            more = at("op", "*")
            i += more  # step over the "*"
        exponents = [0, 0, 0]
        while more:
            pos = tokens[i][2]
            name = take(_VAR_HINT, "name")
            if name not in _VARS:
                raise ParseError(f"unknown variable {name!r}", pos, expected=_VAR_HINT)
            exponent = 1
            if at("op", "^"):
                i += 1
                exponent = take("an exponent", "int")
            exponents[_VARS[name]] += exponent
            more = at("op", "*")
            i += more
        mono = Monomial(*exponents)
        total = terms.get(mono, 0) + (coeff if sign == "+" else -coeff)
        if total:
            terms[mono] = total
        else:
            terms.pop(mono, None)
        if at("end"):
            return Polynomial._raw(terms)
        sign = take("'+' or '-'", "op", "+-")


_LATEX_NAMES = ("\\alpha", "\\beta", "\\gamma")


def _latex_monomial(m: Monomial) -> str:
    parts = []
    for sym, e in zip(_LATEX_NAMES, m):
        if e == 1:
            parts.append(sym)
        elif e > 1:
            parts.append(f"{sym}^{{{e}}}")
    return "".join(parts)


def _latex_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"\\frac{{{q.numerator}}}{{{q.denominator}}}"


def to_latex(p: Polynomial) -> str:
    """Render a polynomial with Greek letters and superscript exponents."""
    return p._render(_latex_monomial, _latex_fraction, "")
