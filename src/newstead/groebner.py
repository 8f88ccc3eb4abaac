"""Buchberger engine and quotient-ring queries for the relation ideals.

The reduced Groebner basis of the genus-g relation ideal has a strikingly
simple shape: its leading monomials are exactly the C(g+2, 2) monomials of
standard degree g, so the standard monomials are those of degree below g
and the quotient has dimension C(g+2, 3).  Everything here is exact; the
reduced basis is unique, hence independent of generator order.

From the generators to the reduced basis a polynomial is a monic entry, its
lead and its tail over the lead's coefficient; an S-polynomial is
u*tail1 - v*tail2, the monic leads cancelling.  One completion loop reduces
the S-polynomials of the pairs chosen by lcm weight and pruned by the
Gebauer-Moller update as each lead arrives, and appends each nonzero
remainder as an entry.  Buchberger drains it and interreduces once; its
criterion, `is_groebner_basis`, holds iff the loop appends nothing, so for
a genus-g basis it reduces g(g+2) S-polynomials instead of all
C(C(g+2, 2), 2).  The tests keep it as the oracle for `is_relation_basis`,
the certificate of a genus-g basis that the cache loader and `verify` use.
A seed of entries that already form a Groebner basis enters the loop first,
and their mutual pairs count as yielded pairs that reduce to zero: c times
the genus-(g-1) basis is the part of the genus-g basis whose leads hold c,
so a genus-g build seeded with it reduces 2g+2 S-polynomials.
Division pops terms largest first from a heap and reduces by the largest
divisor lead, so normal forms are deterministic step by step; reducers are
monic entries, so a step never divides, and a `GroebnerBasis` builds its
sorted list of them once.  `pairing_ratio` reads the socle coefficient off
a per-basis memo of the same division, so each monomial the divisions pass
through is reduced once per basis, not once per query, and
`standard_monomials` reads the quotient basis off the staircase of the
leads instead of testing each monomial against each lead.

`ideal_equal` needs no basis when the two generator lists are weighted
homogeneous with the same weights, each once.  It decides equality weight
by weight: sorted by weight, the ideals are equal iff the i-th generators
of both sides, reduced modulo the part of their weight spanned by one
side's earlier generators, are both zero or multiples of each other; the
same division kernel reduces by Gaussian elimination in those finite
spans.  Other lists are reduced modulo each other's basis.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, inf, lcm
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence
from typing import Tuple, Union

from .relations import RelationTriple, relations_by_recursion
from .ring import Monomial, Polynomial, integer_form, mono_key

__all__ = [
    "ORDER_TAG",
    "GroebnerBasis",
    "normal_form",
    "buchberger",
    "relation_ideal_basis",
    "is_groebner_basis",
    "is_relation_basis",
    "standard_monomials",
    "hilbert_series",
    "complete_intersection_hilbert",
    "pairing_ratio",
    "ideal_equal",
]

# the monomial order, as the cache files and `groebner --format json` name it
ORDER_TAG = "grevlex-abc"

# reducer entry: (leading monomial, tail terms over the leading coefficient)
_Reducer = Tuple[Monomial, Dict[Monomial, Fraction]]


def _entry(terms: Mapping[Monomial, Fraction]) -> _Reducer:
    """The monic entry of nonzero terms: their lead, the rest over its coefficient."""
    tail = dict(terms)
    lm = max(tail, key=Monomial.sort_key)
    lc = tail.pop(lm)
    return lm, tail if lc == 1 else {m: q / lc for m, q in tail.items()}


def _reducer_key(entry: _Reducer):
    return entry[0].sort_key()


def _make_reducers(polys: Iterable[Polynomial]) -> List[_Reducer]:
    return sorted((_entry(p.terms) for p in polys if p), key=_reducer_key)


def _times(terms: Mapping[Monomial, Fraction], u: Monomial):
    """The terms multiplied by the monomial u, as a new dict."""
    ua, ub, uc = u
    return {Monomial(a + ua, b + ub, c + uc): q for (a, b, c), q in terms.items()}


def _heap_key(m: Monomial) -> Tuple[int, int, int]:
    """Negated grevlex key: a min-heap pops the largest monomial first."""
    key = m.sort_key()
    return (-key[0], -key[1], -key[2])


def _largest_divisor(m: Monomial, reducers: List[_Reducer]) -> Optional[_Reducer]:
    """The reducer with the largest lead dividing m, or None; the reducers
    must be sorted ascending by leading monomial."""
    a, b, c = m
    # reversed scan: the first divisor found has the largest lead
    for entry in reversed(reducers):
        la, lb, lc = entry[0]
        if la <= a and lb <= b and lc <= c:
            return entry
    return None


def _reduce_terms(work: Dict[Monomial, Fraction], reducers: List[_Reducer]):
    """Full multivariate division remainder of `work` (consumed) by the
    reducers, which must be sorted ascending by leading monomial.  A term
    enters the heap when it is new to `work`; entries of cancelled terms are
    stale.  A step only adds terms below the one it pops."""
    out: Dict[Monomial, Fraction] = {}
    heap = [(_heap_key(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        m = heapq.heappop(heap)[1]
        cf = work.pop(m, None)
        if cf is None:
            continue
        entry = _largest_divisor(m, reducers)
        if entry is None:
            out[m] = cf
            continue
        for key, tc in _times(entry[1], m // entry[0]).items():
            if key not in work:
                heapq.heappush(heap, (_heap_key(key), key))
            value = work.get(key, 0) - cf * tc
            if value:
                work[key] = value
            else:
                work.pop(key, None)
    return out


def _s_terms(e1: _Reducer, e2: _Reducer) -> Dict[Monomial, Fraction]:
    """The S-polynomial u*tail1 - v*tail2, where u*lead1 = v*lead2 is the lcm."""
    (lm1, tail1), (lm2, tail2) = e1, e2
    big = lm1.lcm(lm2)
    out = _times(tail1, big // lm1)
    for m, q in _times(tail2, big // lm2).items():
        out[m] = out.get(m, 0) - q
    return {m: q for m, q in out.items() if q}


def normal_form(
    p: Polynomial, basis: Union["GroebnerBasis", Sequence[Polynomial]]
) -> Polynomial:
    """Remainder of p modulo the basis; linear and idempotent."""
    reducers = (
        basis._reducers if isinstance(basis, GroebnerBasis) else _make_reducers(basis)
    )
    return Polynomial._raw(_reduce_terms(dict(p.terms), reducers))


def _interreduce(
    reducers: List[_Reducer], seed: Sequence[_Reducer] = ()
) -> Tuple[Polynomial, ...]:
    """Reduced basis from the reducers of a Groebner basis, sorted by lead,
    in one pass: drop each element whose lead an earlier kept lead divides,
    then reduce each kept tail once against the kept set (Cox, Little,
    O'Shea, Ideals, Varieties, and Algorithms, section 2.7).  The tails of
    `seed`, entries of a reduced basis, are reduced against its leads; a
    lead that divides a tail term has no higher standard degree, so a seed
    tail is kept as it is unless a kept lead from outside the seed is that
    low."""
    kept: List[_Reducer] = []
    for entry in reducers:
        if not any(k[0].divides(entry[0]) for k in kept):
            kept.append(entry)
    ids = {id(entry) for entry in seed}
    low = min((e[0].degree for e in kept if id(e) not in ids), default=inf)

    def reduced(entry: _Reducer) -> Polynomial:
        lm, tail = entry
        if id(entry) not in ids or any(m.degree >= low for m in tail):
            tail = _reduce_terms(dict(tail), kept)
        return Polynomial._raw({lm: Fraction(1), **tail})

    return tuple(map(reduced, kept))


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic elements sorted by leading monomial.

    A `genus` tag asserts that this is the basis of the genus-g relation
    ideal, which `is_relation_basis` certifies; only `relation_ideal_basis`,
    `load_cached_basis` and an explicit `GroebnerBasis(elements, genus=g)`
    set one.  That ideal is weighted homogeneous and its quotient is zero
    above weight 3g-3 (every standard monomial has standard degree below
    g), so a tagged basis drops every term above that weight before it
    reduces; `pairing_ratio` and `tangent_vanishing_check` read the genus
    off the tag, and the former keeps its memo on the basis object, never
    shared with another basis.  A tag below 1 is refused: its weight 3g-3
    would be negative, and every polynomial would reduce to zero.
    """

    elements: Tuple[Polynomial, ...]
    genus: Optional[int] = None

    def __post_init__(self) -> None:
        if self.genus is not None and self.genus < 1:
            raise ValueError(f"genus tag must be at least 1, not {self.genus}")

    def leading_monomials(self) -> Tuple[Monomial, ...]:
        return tuple(p.leading_monomial() for p in self.elements)

    @cached_property
    def _reducers(self) -> List[_Reducer]:
        # not a field, so equality and hashing ignore it
        return _make_reducers(self.elements)

    @cached_property
    def _socle(self) -> Dict[Monomial, Fraction]:
        # monomial -> coefficient of c^(g-1) in its normal form, filled by
        # `pairing_ratio`; not a field, like `_reducers`
        return {}

    @cached_property
    def _bordered(self) -> bool:
        # the genus shape and the border criterion for the tag's genus, read
        # by `is_relation_basis` once per basis; not a field, like `_reducers`
        leads = sorted(expected_initial_ideal(self.genus), key=Monomial.sort_key)
        return _has_genus_shape(self.elements, leads) and _is_border_basis(
            self.elements, leads
        )

    def normal_form(self, p: Polynomial) -> Polynomial:
        if self.genus is not None:
            top = 3 * self.genus - 3
            p = Polynomial._raw({m: q for m, q in p.terms.items() if m.weight <= top})
        return normal_form(p, self)

    def contains(self, p: Polynomial) -> bool:
        return not self.normal_form(p)


def _critical_pairs(lms: List[Monomial], seeded: int = 0) -> Iterator[Tuple[int, int]]:
    """Index pairs (i, j), i < j, whose S-polynomials must be reduced, by
    the lcm's weight, then its `sort_key`, then index: the sugar strategy of
    Giovini et al., whose sugar is the weight on weighted homogeneous input.
    Leads the caller appends to `lms` between two pairs enter, by the
    Gebauer-Moller update, before the next pair is chosen; a fixed set's
    leads all enter first (Becker, Weispfenning, Groebner Bases, 5.5).  The
    first `seeded` leads, of entries that already form a Groebner basis,
    enter at the start without pairs among them.  For a new lead h: (B) a
    queued (i, j) whose lcm L h divides is dropped unless lcm(i, h) or
    lcm(j, h) is L; (M) of the new (i, h), taken by ascending lcm with a
    coprime one first among equal lcms, one is kept only if no kept lcm
    divides its own; (F) no coprime pair is queued.

    Sound: call a pair of lcm L joined when its leads are linked by a path
    of leads dividing L whose steps are pairs of lcm properly dividing L, or
    coprime, queued or yielded pairs of lcm L.  New pairs are joined; B
    leaves (i, j) joined by i, h, j, and M a dropped (i, h) by the kept
    (k, h) and the older, joined (i, k).  With the queue empty, induction on
    L gives each S-polynomial an lcm-representation once the yielded ones
    reduce to zero: a Groebner basis (Cox, Little, O'Shea, Ideals,
    Varieties, and Algorithms, section 2.9, Theorem 6).  A pair of seeded
    leads counts as yielded: the seeded entries are a Groebner basis, so its
    S-polynomial reduces to zero modulo them.  Dropped pairs leave `live`
    and are skipped when popped."""
    heap: List[Tuple[Tuple[int, int, int, int], int, int]] = []
    live: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    entered = seeded
    while True:
        for h in range(entered, len(lms)):
            ha, hb, hc = lms[h]
            lcms = [
                (a if a > ha else ha, b if b > hb else hb, c if c > hc else hc)
                for a, b, c in lms[:h]
            ]
            for (i, j), lcm in list(live.items()):
                la, lb, lc = lcm
                if ha <= la and hb <= lb and hc <= lc and lcms[i] != lcm != lcms[j]:
                    del live[i, j]
            # divisors weigh less; among equal lcms a coprime pair comes first
            kept: List[Tuple[int, int, int]] = []
            for weight, shared, i in sorted(
                (la + 2 * lb + 3 * lc, (a and ha or b and hb or c and hc) > 0, i)
                for i, ((la, lb, lc), (a, b, c)) in enumerate(zip(lcms, lms))
            ):
                la, lb, lc = lcm = lcms[i]
                if any(a <= la and b <= lb and c <= lc for a, b, c in kept):
                    continue
                kept.append(lcm)
                if shared:  # the leads share a variable: not coprime
                    live[i, h] = lcm
                    key = (weight, la + lb + lc, -lc, -lb)  # weight + sort_key
                    heapq.heappush(heap, (key, i, h))
        entered = len(lms)
        if not live:
            return
        _, i, j = heapq.heappop(heap)
        if live.pop((i, j), None) is not None:
            yield i, j


def _completion(entries: List[_Reducer], seeded: int = 0) -> Iterator[_Reducer]:
    """Reduce the S-polynomial of each pair `_critical_pairs` yields modulo
    the entries so far; append each nonzero remainder to `entries` as an
    entry and yield it.  Yields nothing iff `entries` is a Groebner basis.
    The first `seeded` entries must already form one."""
    lms = [lm for lm, _ in entries]
    reducers = sorted(entries, key=_reducer_key)
    for i, j in _critical_pairs(lms, seeded):
        remainder = _reduce_terms(_s_terms(entries[i], entries[j]), reducers)
        if remainder:
            entry = _entry(remainder)
            entries.append(entry)
            lms.append(entry[0])
            insort(reducers, entry, key=_reducer_key)
            yield entry


def buchberger(
    generators: Iterable[Polynomial], *, seed: Sequence[Polynomial] = ()
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by the generators and
    `seed`, untagged: the generators alone do not say which genus they
    belong to.  The seed must be a reduced Groebner basis: the pairs among
    its elements are not formed."""
    gens = list(generators)
    for p in (*seed, *gens):
        if not isinstance(p, Polynomial):
            raise TypeError(f"generator {p!r} is not a Polynomial")
        if not p:
            raise ValueError("generators must be nonzero")
    # the reduced basis is unique, so the pair loop may start unreduced
    seeded = [_entry(p.terms) for p in seed]
    entries = seeded + [_entry(p.terms) for p in gens]
    for _ in _completion(entries, len(seeded)):
        pass
    return GroebnerBasis(_interreduce(sorted(entries, key=_reducer_key), seeded))


def relation_ideal_basis(
    genus: int,
    previous: Optional[GroebnerBasis] = None,
    triple: Optional[RelationTriple] = None,
) -> GroebnerBasis:
    """Reduced basis of the genus-g relation ideal, tagged with the genus.

    `triple`, if given, is the genus-g relation triple, which saves walking
    the recursion.  `previous`, if given, must be tagged with genus g-1; c
    times its elements then seed Buchberger.  The recursion step from g-1
    to g gives c*f1 = f3', c*f2 = (c*f1' - a*f3')/(g-1)^2 and
    c*f3 = (g/(2(g-1)))*(c*f2' - b*f3'), so c*I_(g-1) lies in I_g.  For a
    reduced element h of the genus-(g-1) basis, c*h is monic with a lead of
    degree g and a tail below degree g, so it is the element of the genus-g
    basis with that lead: the seed is the part of the basis whose leads hold
    c, and only the g+1 elements with c-free leads are new."""
    if triple is None:
        triple = relations_by_recursion(genus)
    elif triple.genus != genus:
        raise ValueError(f"a genus-{triple.genus} triple cannot build genus {genus}")
    seed: Tuple[Polynomial, ...] = ()
    if previous is not None:
        if previous.genus != genus - 1:
            raise ValueError(
                f"the genus-{genus} basis is seeded from genus {genus - 1}, "
                f"not from a basis tagged {previous.genus}"
            )
        up = Monomial(0, 0, 1)
        seed = tuple(Polynomial._raw(_times(p.terms, up)) for p in previous.elements)
    gb = buchberger(triple.polynomials(), seed=seed)
    return GroebnerBasis(gb.elements, genus=genus)


def is_groebner_basis(basis: Union[GroebnerBasis, Sequence[Polynomial]]) -> bool:
    """Buchberger's criterion on the pairs `_critical_pairs` keeps, all leads
    entering its Gebauer-Moller update first: a dropped pair is joined by kept
    pairs and pairs of smaller lcm, so it has an lcm-representation once the
    kept S-polynomials reduce to zero, which `_completion` checks."""
    polys = basis.elements if isinstance(basis, GroebnerBasis) else basis
    return next(_completion(_make_reducers(polys)), None) is None


def _has_genus_shape(elements: Sequence[Polynomial], leads: List[Monomial]) -> bool:
    """One element per lead, the ascending monomials of standard degree g:
    the i-th holds the i-th lead with coefficient 1 and every other term has
    lower degree, so that lead is its lead.  Linear time.  Leads of one
    degree never divide one another and tails below it are standard, so such
    a set is monic, sorted and reduced, with the C(g+2, 3) monomials of
    degree below g as its standard monomials."""
    return len(elements) == len(leads) and all(
        p.terms.get(lm) == 1 and all(m.degree < lm.degree for m in p.terms if m != lm)
        for p, lm in zip(elements, leads)
    )


def _is_border_basis(elements: Sequence[Polynomial], leads: List[Monomial]) -> bool:
    """The border criterion on a set of genus shape: the multiplication maps
    that its tails define on the monomials of degree below g commute.  For t
    of degree g-1 and variables x_k, x_l, x_l*tail(x_k*t) and x_k*tail(x_l*t)
    must agree once each term of degree g is replaced by minus its element's
    tail; below degree g-1 the two products agree by symmetry.

    Each element is read as its `integer_form`, keyed by its lead.  A term of
    a product has degree g exactly when its key is one of the leads, and
    a product's denominator is its element's times the lcm of those it
    substitutes."""
    # multiplying by a, b or c adds this to a key
    shift = tuple(mono_key(m) for m in (Monomial(1), Monomial(0, 1), Monomial(0, 0, 1)))
    tails = {}  # lead key -> (denominator, [(monomial key, numerator)])
    for lead, p in zip(map(mono_key, leads), elements):
        den, terms = integer_form(p)
        tails[lead] = den, [(m, n) for m, n in terms if m != lead]
    products = ({}, {}, {})  # products[var][key]

    def times(key, var):
        # x_var * tail(key), terms of degree g substituted, as
        # (denominator, {monomial key: numerator})
        memo = products[var]
        if key not in memo:
            den, terms = tails[key]
            step = shift[var]
            out, border = {}, []
            for m, n in terms:
                m += step
                if m in tails:
                    border.append((tails[m], n))
                else:
                    out[m] = n
            scale = lcm(*(d for (d, _), _ in border))
            if scale != 1:
                out = {m: n * scale for m, n in out.items()}
            get = out.get
            for (d, terms_q), n in border:
                n *= scale // d
                for m, nq in terms_q:
                    out[m] = get(m, 0) - n * nq
            memo[key] = den * scale, out
        return memo[key]

    # each t of degree g-1 is one lead over c
    for t in (mono_key(lead) - shift[2] for lead in leads if lead.c):
        for k, l in ((0, 1), (0, 2), (1, 2)):
            dk, left = times(t + shift[k], l)
            dl, right = times(t + shift[l], k)
            common = gcd(dk, dl)
            fl, fr = dl // common, dk // common
            if any(
                left.get(m, 0) * fl != right.get(m, 0) * fr
                for m in left.keys() | right.keys()
            ):
                return False
    return True


def is_relation_basis(gb: GroebnerBasis, triple: RelationTriple) -> bool:
    """True iff `gb` is the reduced basis of the ideal J of `triple`: it is
    tagged with the triple's genus g, has the genus shape, passes the border
    criterion, and every generator of `triple` reduces to zero.

    The shape makes `gb` a border prebasis of the order ideal O of the
    C(g+2, 3) monomials of degree below g, whose border is its leads.  The
    border criterion (Kehrein, Kreuzer and Robbiano, "An algebraist's view on
    border bases", 2005; Mourrain, 1999) makes it a border basis of the ideal
    I it spans, so dim Q[a,b,c]/I = |O|; as every tail has lower degree, it
    is the reduced Groebner basis of I.  The generators reduce to zero, so I
    contains J, whose quotient has the same dimension C(g+2, 3): I = J, and
    `gb` equals a fresh basis.  The shape and border result is kept on the
    basis.  The generators go through the module-level `normal_form`, which
    never truncates: at g <= 2 the tag's truncation would drop f3."""
    return (
        gb.genus == triple.genus
        and gb._bordered
        and not any(normal_form(p, gb) for p in triple.polynomials())
    )


def standard_monomials(gb: GroebnerBasis) -> Tuple[Monomial, ...]:
    """Enumerate the standard monomials, sorted by (weight, grevlex).

    Requires the quotient to be finite dimensional, i.e. the initial ideal
    must contain a pure power of each variable.  The smallest pure powers
    a^A, b^B, c^C bound a box holding every standard monomial.  Inside it
    the monomials are read off the staircase: ends[b][c], the least a with
    a^a b^b c^c in the initial ideal, is A lowered by every lead of b- and
    c-exponent at most (b, c), a two-dimensional prefix minimum, and the
    standard monomials are those with a < ends[b][c].  That is linear in
    the box plus the leads, where testing each box monomial against each
    lead is their product.
    """
    lms = gb.leading_monomials()
    bounds = []
    for i in range(3):
        pure = [m[i] for m in lms if m[i] == m.degree]  # powers of variable i
        if not pure:
            raise ValueError(
                "quotient ring is infinite dimensional (no pure power of "
                "some variable among the leading monomials)"
            )
        bounds.append(min(pure))
    top_a, top_b, top_c = bounds
    ends = [[top_a] * top_c for _ in range(top_b)]
    for lm in lms:
        if lm.b < top_b and lm.c < top_c and lm.a < ends[lm.b][lm.c]:
            ends[lm.b][lm.c] = lm.a
    for b in range(top_b):
        row = ends[b]
        for c in range(top_c):
            if c and row[c - 1] < row[c]:
                row[c] = row[c - 1]
            if b and ends[b - 1][c] < row[c]:
                row[c] = ends[b - 1][c]
    found = [
        Monomial(a, b, c)
        for b in range(top_b)
        for c in range(top_c)
        for a in range(ends[b][c])
    ]
    found.sort(key=lambda m: (m.weight, m.sort_key()))
    return tuple(found)


def _counts_by_weight(monomials: Sequence[Monomial]) -> Tuple[int, ...]:
    """How many of `monomials` have each weight, up to the largest."""
    counts = [0] * (max((m.weight for m in monomials), default=0) + 1)
    for m in monomials:
        counts[m.weight] += 1
    return tuple(counts)


def hilbert_series(gb: GroebnerBasis) -> Tuple[int, ...]:
    """Graded dimensions of the quotient, indexed by weighted degree."""
    return _counts_by_weight(standard_monomials(gb))


def complete_intersection_hilbert(genus: int) -> Tuple[int, ...]:
    """Expansion of (1-t^g)(1-t^(g+1))(1-t^(g+2)) / ((1-t)(1-t^2)(1-t^3)).

    This is the Hilbert series a quotient by a regular sequence of weighted
    degrees g, g+1, g+2 must have; it is the independent closed-form check
    against the monomial count of `hilbert_series`.  Each factor of the
    numerator is a running difference, each of the denominator a running
    sum, and the quotient must vanish above weight 3g-3.
    """
    if genus < 1:
        raise ValueError("genus must be at least 1")
    coeffs = [1] + [0] * (3 * genus + 3)
    for d in (genus, genus + 1, genus + 2):
        for i in range(len(coeffs) - 1, d - 1, -1):
            coeffs[i] -= coeffs[i - d]
    for d in (1, 2, 3):
        for i in range(d, len(coeffs)):
            coeffs[i] += coeffs[i - d]
    if any(coeffs[3 * genus - 2 :]):
        raise ArithmeticError("inexact division by (1-t)(1-t^2)(1-t^3)")
    return tuple(coeffs[: 3 * genus - 2])


def pairing_ratio(mono: Monomial, gb: GroebnerBasis) -> Fraction:
    """Socle coefficient of a top-weight monomial modulo the ideal.

    The unique standard monomial of weighted degree 3g-3 is c^(g-1); the
    normal form of any monomial of that weight is a rational multiple of
    it, and this returns the multiplier.  Intersection numbers against the
    fundamental class are proportional to these ratios, with a global
    normalization this package does not fix.

    The value is the linear functional L(m) = coefficient of c^(g-1) in the
    normal form of m, memoized per basis object: when the largest lead
    dividing m (the one division uses) is lm, with tail t over its
    coefficient, m = u*lm gives L(m) = -sum of tc * L(u*t) over the tail
    terms, each below m; otherwise L(m) is 1 if m = c^(g-1) and 0 else.
    Division is linear, so this equals `gb.normal_form(m)`'s coefficient
    for any basis.  The divisions of the top-weight monomials pass through
    the same monomials (for the genus-g ideal, all of weight 3g-3), and
    each is reduced once per basis, not once per query.  The memo is
    filled depth first from an explicit stack, without recursion.
    """
    if gb.genus is None:
        raise ValueError("pairing ratios need a genus-tagged basis")
    top = 3 * gb.genus - 3
    if mono.weight != top:
        raise ValueError(
            f"monomial {mono} has weighted degree {mono.weight}, "
            f"but the socle lives in weighted degree {top}"
        )
    reducers, memo = gb._reducers, gb._socle
    socle = Monomial(0, 0, gb.genus - 1)
    # (monomial, None) until expanded, then (monomial, tail terms times u)
    stack = [(mono, None)]
    while stack:
        m, terms = stack[-1]
        if m in memo:
            stack.pop()
        elif terms is not None:  # every term below m is filled by now
            memo[m] = -sum((tc * memo[t] for t, tc in terms.items()), Fraction(0))
            stack.pop()
        else:
            entry = _largest_divisor(m, reducers)
            if entry is None:
                memo[m] = Fraction(1 if m == socle else 0)
                stack.pop()
                continue
            terms = _times(entry[1], m // entry[0])
            stack[-1] = (m, terms)
            stack.extend((t, None) for t in terms if t not in memo)
    return memo[mono]


def _monomials_of_weight(weight: int) -> List[Monomial]:
    return [
        Monomial(weight - 2 * b - 3 * c, b, c)
        for c in range(weight // 3 + 1)
        for b in range((weight - 3 * c) // 2 + 1)
    ]


def _weight_part(gens: List[Polynomial], weight: int) -> List[_Reducer]:
    """Echelon reducers spanning the weight-`weight` part of the ideal of
    the weighted homogeneous `gens`: the span of m*f over the generators f
    and the monomials m of weight `weight` minus that of f.  All vectors
    have that weight, so a lead divides a monomial only when the two are
    equal, and `_reduce_terms` is Gaussian elimination against them.  A
    generator heavier than `weight` has no monomial multiplier."""
    reducers: List[_Reducer] = []
    for f in gens:
        for m in _monomials_of_weight(weight - f.weighted_degree()):
            remainder = _reduce_terms(_times(f.terms, m), reducers)
            if remainder:
                insort(reducers, _entry(remainder), key=_reducer_key)
    return reducers


def _proportional(u: Dict[Monomial, Fraction], v: Dict[Monomial, Fraction]) -> bool:
    """Both zero, or nonzero multiples of each other."""
    first = next(iter(u), None)
    return u.keys() == v.keys() and (
        first is None or all(u[m] * v[first] == v[m] * u[first] for m in u)
    )


def ideal_equal(
    gens1: Iterable[Polynomial],
    gens2: Iterable[Polynomial],
    basis1: Optional[GroebnerBasis] = None,
    basis2: Optional[GroebnerBasis] = None,
) -> bool:
    """True when the two generating sets span the same ideal.

    Zero generators are dropped.  When both lists are weighted homogeneous
    with the same weights, each once, they are compared weight by weight
    and no basis is built.  Sort both by weight, f_1, f_2, ... and h_1,
    h_2, ... with weights d_1 < d_2 < ..., and let P_i be the weight-d_i
    part of (f_1, ..., f_(i-1)): the span of m*f_j, m a monomial of weight
    d_i minus that of f_j, which `_weight_part` builds.  Then (F) = (H) iff
    at every i, f_i and h_i reduced modulo P_i are both zero or nonzero
    multiples of each other.  Equal ideals have equal parts below d_i, which
    generate (f_<i) and (h_<i), so those are equal, and the weight-d_i parts
    P_i + span(f_i) and P_i + span(h_i) are equal; conversely, by induction
    on i, (f_<i) = (h_<i) makes f_i and h_i lie in each other's ideal.  Only
    one side's parts are built, and the relation triple against the series
    derivatives or the quotient bundle's Chern classes is such a pair at
    every genus.  Otherwise (lists of different lengths, an inhomogeneous
    generator, differing or repeated weights) each side's generators are
    reduced modulo the other side's basis, which decides equality too.
    Precomputed bases may be supplied to avoid redundant work on that
    route.
    """
    list1 = [p for p in gens1 if p]
    list2 = [p for p in gens2 if p]
    weights = {p.weighted_degree() for p in list1}
    if (
        len(weights) == len(list1) == len(list2)
        and None not in weights
        and weights == {p.weighted_degree() for p in list2}
    ):
        f = sorted(list1, key=Polynomial.weighted_degree)
        h = sorted(list2, key=Polynomial.weighted_degree)
        for i, (p, q) in enumerate(zip(f, h)):
            part = _weight_part(f[:i], p.weighted_degree())
            if not _proportional(
                _reduce_terms(dict(p.terms), part), _reduce_terms(dict(q.terms), part)
            ):
                return False
        return True
    gb1 = basis1 if basis1 is not None else buchberger(list1)
    gb2 = basis2 if basis2 is not None else buchberger(list2)
    return all(gb1.contains(p) for p in list2) and all(
        gb2.contains(p) for p in list1
    )


def expected_initial_ideal(genus: int) -> frozenset:
    """All C(g+2, 2) monomials of standard degree exactly g."""
    return frozenset(
        Monomial(a, b, genus - a - b)
        for a in range(genus + 1)
        for b in range(genus + 1 - a)
    )


def expected_standard_count(genus: int) -> int:
    """C(g+2, 3), the number of monomials of standard degree below g."""
    return comb(genus + 2, 3)
