"""Even Betti numbers of the full moduli space, two independent ways.

The even cohomology of the genus-g moduli space is spanned by two families
of generators built from the degree-2 class alpha, the degree-4 class
beta, the degree-6 class gamma and products of 2l distinct odd classes
(each choice of index set counting once, C(2g, 2l) in total):

    alpha^a beta^b psi...psi            with a + b + 2l <  g - 1
    alpha^a beta^b gamma^k psi...psi    with a + b + k + 2l = g - 1

`enumerate_generator_counts` counts these directly by half-degree s (a
monomial of half-degree s sits in real cohomological degree 2s).  The same
numbers satisfy a two-step recursion: multiplication by beta, resp. by
gamma/alpha, injects the generators of half-degree s-2 into those of
half-degree s, and the complement consists exactly of the beta- and
gamma-free generators alpha^a psi...psi with a + 3l = s and a + 2l <= g-1.
Hence for 2 <= s <= floor((3g-1)/2):

    N(s) = N(s-2) + sum_{l = max(0, s-g+1)}^{floor(s/3)} C(2g, 2l)

seeded with N(0) = N(1) = 1.  The recursion and the direct enumeration
must agree on that whole range, which is the cross-check exposed here.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Tuple

__all__ = [
    "default_s_max",
    "newstead_betti",
    "enumerate_generator_counts",
    "betti_cross_check",
    "invariant_dimensions",
]


def default_s_max(genus: int) -> int:
    """Largest half-degree for which the recursion is valid."""
    return (3 * genus - 1) // 2


def newstead_betti(genus: int, s_max: Optional[int] = None) -> Tuple[int, ...]:
    """N(0), ..., N(s_max) by the two-step recursion, seeded with N(0) = N(1) = 1."""
    if genus < 2:
        raise ValueError("genus must be at least 2")
    if s_max is None:
        s_max = default_s_max(genus)
    if s_max < 0:
        raise ValueError("s_max must be non-negative")
    values = [1, 1][: s_max + 1]
    for s in range(2, s_max + 1):
        # l <= s/3 and s-g+1 <= l force l < g, so C(2g, 2l) is never 0 here
        new = sum(
            comb(2 * genus, 2 * l) for l in range(max(0, s - genus + 1), s // 3 + 1)
        )
        values.append(values[s - 2] + new)
    return tuple(values)


def enumerate_generator_counts(genus: int, s: int) -> int:
    """Number of cohomology generators of real degree 2s, counted directly.

    Each admissible exponent pattern (a, b, k, l) contributes C(2g, 2l),
    the number of ways to pick the 2l odd-class indices.
    """
    if genus < 2:
        raise ValueError("genus must be at least 2")
    if s < 0:
        raise ValueError("degree must be non-negative")
    total = 0
    # first family: a + b + 2l < g - 1, half-degree a + 2b + 3l = s
    for l in range(0, s // 3 + 1):
        ways = comb(2 * genus, 2 * l)
        if ways == 0:
            continue
        for b in range(0, (s - 3 * l) // 2 + 1):
            a = s - 2 * b - 3 * l
            if a >= 0 and a + b + 2 * l < genus - 1:
                total += ways
    # second family: a + b + k + 2l = g - 1, half-degree a + 2b + 3k + 3l = s
    for l in range(0, s // 3 + 1):
        ways = comb(2 * genus, 2 * l)
        if ways == 0:
            continue
        for k in range(0, s // 3 - l + 1):
            for b in range(0, (s - 3 * k - 3 * l) // 2 + 1):
                a = s - 2 * b - 3 * k - 3 * l
                if a >= 0 and a + b + k + 2 * l == genus - 1:
                    total += ways
    return total


def betti_cross_check(genus: int) -> bool:
    """Recursion equals enumeration for every s up to floor((3g-1)/2)."""
    return newstead_betti(genus) == tuple(
        enumerate_generator_counts(genus, s) for s in range(default_s_max(genus) + 1)
    )


def invariant_dimensions(genus: int) -> Tuple[int, ...]:
    """Dimensions of the invariant subring by weighted degree.

    The monomials alpha^a beta^b gamma^c with a + b + c < g form a basis,
    so the dimension in weighted degree w counts solutions of
    a + 2b + 3c = w with a + b + c < g.  Must agree with the Hilbert
    series of the relation ideal quotient.
    """
    if genus < 1:
        raise ValueError("genus must be at least 1")
    dims = [0] * (3 * genus - 2)
    for a in range(genus):
        for b in range(genus - a):
            for c in range(genus - a - b):
                dims[a + 2 * b + 3 * c] += 1
    return tuple(dims)
