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
``parse_poly(str(p)) == p`` for every polynomial p.
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


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_int(self, what: str) -> int:
        kind, value, pos = self.peek()
        if kind != "int":
            raise ParseError(f"unexpected {_describe(kind, value)}", pos, expected=what)
        self.take()
        return value  # type: ignore[return-value]


def _describe(kind, value) -> str:
    if kind == "end":
        return "end of input"
    return f"token {value!r}"


def parse_poly(text: str) -> Polynomial:
    """Parse a polynomial expression; raises ParseError on bad input."""
    parser = _Parser(_tokenize(text))
    kind, _, pos = parser.peek()
    if kind == "end":
        raise ParseError("empty input", pos, expected="a term")

    accumulated: dict = {}
    first = True
    while True:
        sign = 1
        kind, value, pos = parser.peek()
        if kind == "op" and value in "+-":
            parser.take()
            sign = -1 if value == "-" else 1
        elif not first:
            raise ParseError(
                f"unexpected {_describe(kind, value)}", pos, expected="'+' or '-'"
            )
        coeff, mono = _parse_term(parser)
        coeff *= sign
        prev = accumulated.get(mono, Fraction(0))
        total = prev + coeff
        if total:
            accumulated[mono] = total
        else:
            accumulated.pop(mono, None)
        first = False
        kind, value, pos = parser.peek()
        if kind == "end":
            break
        if not (kind == "op" and value in "+-"):
            raise ParseError(
                f"unexpected {_describe(kind, value)}", pos, expected="'+' or '-'"
            )
    return Polynomial(accumulated)


def _parse_term(p: _Parser) -> Tuple[Fraction, Monomial]:
    kind, value, pos = p.peek()
    coeff = Fraction(1)
    exponents = [0, 0, 0]
    if kind == "int":
        p.take()
        numerator = value
        denominator = 1
        kind, value, pos = p.peek()
        if kind == "op" and value == "/":
            p.take()
            _, _, dpos = p.peek()
            denominator = p.expect_int("a denominator")
            if denominator == 0:
                raise ParseError("zero denominator", dpos)
        coeff = Fraction(numerator, denominator)
        kind, value, pos = p.peek()
        if kind == "op" and value == "*":
            p.take()
            _parse_factors(p, exponents)
    elif kind == "name":
        _parse_factors(p, exponents)
    else:
        raise ParseError(
            f"unexpected {_describe(kind, value)}", pos, expected="a coefficient or variable"
        )
    return coeff, Monomial(*exponents)


def _parse_factors(p: _Parser, exponents: List[int]) -> None:
    while True:
        kind, value, pos = p.peek()
        if kind != "name":
            raise ParseError(
                f"unexpected {_describe(kind, value)}", pos, expected=_VAR_HINT
            )
        if value not in _VARS:
            raise ParseError(f"unknown variable {value!r}", pos, expected=_VAR_HINT)
        p.take()
        index = _VARS[value]
        exponent = 1
        kind, value, _ = p.peek()
        if kind == "op" and value == "^":
            p.take()
            exponent = p.expect_int("an exponent")
        exponents[index] += exponent
        kind, value, _ = p.peek()
        if kind == "op" and value == "*":
            p.take()
            continue
        return


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
    if not p:
        return "0"
    chunks = []
    for m, q in p.sorted_terms():
        mag = -q if q < 0 else q
        if m.degree == 0:
            body = _latex_fraction(mag)
        elif mag == 1:
            body = _latex_monomial(m)
        else:
            body = _latex_fraction(mag) + _latex_monomial(m)
        if not chunks:
            chunks.append(body if q > 0 else "-" + body)
        else:
            chunks.append((" + " if q > 0 else " - ") + body)
    return "".join(chunks)
