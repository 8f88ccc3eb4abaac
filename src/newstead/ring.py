"""Exact sparse polynomials in the invariant classes alpha, beta, gamma.

Coefficients are `fractions.Fraction`; nothing here ever rounds.  The three
variables carry cohomological weights 1, 2 and 3.  Monomials are compared
in graded reverse lexicographic order with alpha > beta > gamma, graded by
the standard total degree; the weighted degree only enters homogeneity and
truncation bookkeeping, never the term order.

The canonical text form prints the variables as ``a``, ``b``, ``c`` with
terms in descending order, e.g. ``a^2 + b`` or ``-1/2*a^3*c``, and
`newstead.textform.parse_poly` reads the same grammar back.

`integer_form` is the one conversion of a polynomial to integers in the
package: numerators over one denominator, keyed by packed monomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Iterable, List, Mapping, NamedTuple, Optional, Tuple, Union

__all__ = [
    "Monomial",
    "Polynomial",
    "ZERO",
    "ONE",
    "ALPHA",
    "BETA",
    "GAMMA",
]


class Monomial(NamedTuple):
    """Exponent triple (a, b, c) representing alpha^a beta^b gamma^c."""

    a: int = 0
    b: int = 0
    c: int = 0

    @property
    def degree(self) -> int:
        """Standard total degree a + b + c."""
        return self.a + self.b + self.c

    @property
    def weight(self) -> int:
        """Weighted degree a + 2b + 3c."""
        return self.a + 2 * self.b + 3 * self.c

    def sort_key(self) -> Tuple[int, int, int]:
        """Grevlex key: higher total degree wins; ties go to the monomial
        with the smaller trailing exponent (gamma first, then beta)."""
        return (self.a + self.b + self.c, -self.c, -self.b)

    # NamedTuple inherits the plain lexicographic tuple order, which is not
    # the monomial order; shadow all four comparisons.
    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Monomial") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Monomial") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Monomial") -> bool:
        return self.sort_key() >= other.sort_key()

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.a + other.a, self.b + other.b, self.c + other.c)

    def divides(self, other: "Monomial") -> bool:
        return self.a <= other.a and self.b <= other.b and self.c <= other.c

    def __floordiv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(self.a - other.a, self.b - other.b, self.c - other.c)

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(
            max(self.a, other.a), max(self.b, other.b), max(self.c, other.c)
        )

    def __str__(self) -> str:
        if self.a == self.b == self.c == 0:
            return "1"
        parts = []
        for name, e in zip("abc", self):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


def _coerce_mono(m) -> Monomial:
    return m if isinstance(m, Monomial) else Monomial(*m)


class Polynomial:
    """Finite sum of monomials with nonzero exact rational coefficients.

    Immutable once built; all arithmetic returns fresh objects, so values
    may be shared freely between threads.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        data: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            mono = _coerce_mono(mono)
            value = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if mono in data:
                value = data[mono] + value
            if value:
                data[mono] = value
            else:
                data.pop(mono, None)
        self._terms = data

    @classmethod
    def _raw(cls, data: dict) -> "Polynomial":
        # internal fast path: `data` must already be normalized and owned
        p = object.__new__(cls)
        p._terms = data
        return p

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return MappingProxyType(self._terms)

    def coefficient(self, mono) -> Fraction:
        return self._terms.get(_coerce_mono(mono), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -q for m, q in self._terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        data = dict(self._terms)
        for m, q in other._terms.items():
            v = data.get(m)
            if v is None:
                data[m] = q
            else:
                v = v + q
                if v:
                    data[m] = v
                else:
                    del data[m]
        return Polynomial._raw(data)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            data: dict = {}
            for m1, q1 in self._terms.items():
                for m2, q2 in other._terms.items():
                    m = Monomial(m1.a + m2.a, m1.b + m2.b, m1.c + m2.c)
                    v = data.get(m)
                    v = q1 * q2 if v is None else v + q1 * q2
                    if v:
                        data[m] = v
                    elif m in data:
                        del data[m]
            return Polynomial._raw(data)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return Polynomial._raw({})
            return Polynomial._raw({m: v * q for m, v in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        q = Fraction(scalar)
        if not q:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Polynomial._raw({m: v / q for m, v in self._terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self._terms)

    def leading_coefficient(self) -> Fraction:
        return self._terms[self.leading_monomial()]

    def weighted_degree(self) -> Optional[int]:
        """Common weighted degree, or None for an inhomogeneous polynomial.

        The zero polynomial has no weighted degree and is rejected.
        """
        if not self._terms:
            raise ValueError("the zero polynomial has no weighted degree")
        weights = {m.weight for m in self._terms}
        return weights.pop() if len(weights) == 1 else None

    def _render(self, monomial, scalar, times: str) -> str:
        """Signed terms in descending order.  `scalar` renders a positive
        coefficient, `monomial` a non-constant monomial, and `times` joins
        the two when the coefficient is not 1."""
        if not self._terms:
            return "0"
        chunks = []
        for m in sorted(self._terms, reverse=True):
            q = self._terms[m]
            mag = -q if q < 0 else q
            if m.degree == 0:
                body = scalar(mag)
            elif mag == 1:
                body = monomial(m)
            else:
                body = scalar(mag) + times + monomial(m)
            if not chunks:
                chunks.append(body if q > 0 else "-" + body)
            else:
                chunks.append((" + " if q > 0 else " - ") + body)
        return "".join(chunks)

    def __str__(self) -> str:
        return self._render(str, str, "*")

    def __repr__(self) -> str:
        return f"Polynomial({self})"


ZERO = Polynomial()
ONE = Polynomial({Monomial(): 1})
ALPHA = Polynomial({Monomial(1, 0, 0): 1})
BETA = Polynomial({Monomial(0, 1, 0): 1})
GAMMA = Polynomial({Monomial(0, 0, 1): 1})


# An integer form (d, [(key, n)]) stands for sum n m / d, the exponents of m
# packed into key in _SHIFT bits each; inputs stay below 2^(_SHIFT-1), so the
# key of a product of two monomials is the sum of their keys.
IntegerForm = Tuple[int, List[Tuple[int, int]]]
_SHIFT = 16
_MASK = (1 << _SHIFT) - 1


def mono_key(m: Monomial) -> int:
    """The exponents of m packed into one integer, _SHIFT bits each."""
    a, b, c = m
    return a | b << _SHIFT | c << 2 * _SHIFT


def key_mono(key: int) -> Monomial:
    """The monomial whose `mono_key` is key."""
    return Monomial(key & _MASK, key >> _SHIFT & _MASK, key >> 2 * _SHIFT)


def integer_form(p: Polynomial) -> IntegerForm:
    """p over the lcm of its denominators, with packed exponents."""
    terms = p.terms
    if terms and max(map(max, terms)) >> (_SHIFT - 1):
        raise ValueError(f"exponent of {p} too large for integer arithmetic")
    den = lcm(*(q.denominator for q in terms.values()))
    return den, [  # each key is mono_key(m), inlined
        (a | b << _SHIFT | c << 2 * _SHIFT, q.numerator * (den // q.denominator))
        for (a, b, c), q in terms.items()
    ]
