"""On-disk cache of reduced Groebner bases, one JSON file per genus.

A loaded file is never trusted.  An element list of any length but
C(g+2, 2) is rejected before a single element is parsed.  The staircase of
the genus-g basis is known in advance: its leads are the monomials of
standard degree g.  So the i-th element must contain the i-th of them, in
ascending order, with coefficient 1, and every other term must have standard
degree below g.  This shape check takes linear time, and it makes the file
a border prebasis of the order ideal O of the C(g+2, 3) monomials of degree
below g, whose border is exactly those leads.  The border criterion then
certifies it (Kehrein, Kreuzer and Robbiano, "An algebraist's view on border
bases", 2005; Mourrain, 1999): the multiplication maps on O that the tails
define must commute, one substitution per term of degree g, on the
`ring.integer_form` of each element, with no division loop and no pair
queue.  So the file is a border basis of the ideal I it spans, and
dim Q[a,b,c]/I = |O|.  Every tail has lower degree, so
the leads are grevlex leads; the monomials outside the ideal they generate
are O, already dim Q[a,b,c]/I of them, so the leads generate the initial
ideal of I and the file is its reduced Groebner basis.  Last, the relation
generators must reduce to zero.  Then I contains the genus-g ideal J with
dim Q[a,b,c]/I = dim Q[a,b,c]/J, so I = J, and as the reduced basis of an
ideal is unique, the file is bit-identical to a freshly computed basis.
"""

from __future__ import annotations

import json
import os
import tempfile
from math import comb, gcd, lcm
from pathlib import Path
from typing import Optional, Sequence

from .groebner import (
    ORDER_TAG,
    GroebnerBasis,
    expected_initial_ideal,
    normal_form,
    relation_ideal_basis,
)
from .relations import relations_by_recursion
from .ring import Monomial, Polynomial, integer_form, mono_key
from .textform import ParseError, parse_poly

CACHE_VERSION = 1

__all__ = [
    "cache_path", "save_cached_basis", "load_cached_basis", "relation_basis_cached"
]


def cache_path(cache_dir: str, genus: int) -> Path:
    return Path(cache_dir) / f"ideal_g{genus}.json"


def save_cached_basis(cache_dir: str, gb: GroebnerBasis) -> Path:
    """Write one cache file per genus, atomically (write + rename)."""
    if gb.genus is None:
        raise ValueError("only genus-tagged bases are cached")
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CACHE_VERSION,
        "genus": gb.genus,
        "order_tag": ORDER_TAG,
        "elements": [str(p) for p in gb.elements],
    }
    target = cache_path(cache_dir, gb.genus)
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def _has_genus_shape(elements: Sequence[Polynomial], genus: int) -> bool:
    """One element per monomial of standard degree g: the i-th contains the
    i-th of them in ascending order with coefficient 1, and every other term
    has standard degree below g.  Linear time.

    That monomial is then the element's lead, so the elements are monic and
    sorted by lead.  Leads of one degree never divide one another and tails
    below that degree are standard, so such a set is reduced and its
    standard monomials are the C(g+2, 3) monomials of degree below g."""
    leads = sorted(expected_initial_ideal(genus), key=Monomial.sort_key)
    return len(elements) == len(leads) and all(
        p.terms.get(lm) == 1 and all(m.degree < genus for m in p.terms if m != lm)
        for p, lm in zip(elements, leads)
    )


def _is_border_basis(elements: Sequence[Polynomial], genus: int) -> bool:
    """The border criterion on a set of genus shape: the multiplication maps
    that its tails define on the monomials of degree below g commute.  For t
    of degree g-1 and variables x_k, x_l, x_l*tail(x_k*t) and x_k*tail(x_l*t)
    must agree once each term of degree g is replaced by minus its element's
    tail; below degree g-1 the two products agree by symmetry.

    Each element is read as its `integer_form`, keyed by its lead, the same
    ascending list of degree-g monomials the shape check matched.  A term of
    a product has degree g exactly when its key is one of those leads, and
    a product's denominator is its element's times the lcm of those it
    substitutes."""
    # multiplying by a, b or c adds this to a key
    shift = tuple(mono_key(m) for m in (Monomial(1), Monomial(0, 1), Monomial(0, 0, 1)))
    tails = {}  # lead key -> (denominator, [(monomial key, numerator)])
    leads = sorted(expected_initial_ideal(genus), key=Monomial.sort_key)
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

    for a in range(genus):
        for b in range(genus - a):
            t = mono_key(Monomial(a, b, genus - 1 - a - b))
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


def load_cached_basis(cache_dir: str, genus: int) -> Optional[GroebnerBasis]:
    """Load a cached basis, or None when missing, corrupt or invalid."""
    path = cache_path(cache_dir, genus)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    # ValueError also covers a number past the int digit limit, and deep
    # nesting raises RecursionError
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(payload, dict) or (
        payload.get("version"), payload.get("genus"), payload.get("order_tag")
    ) != (CACHE_VERSION, genus, ORDER_TAG):
        return None
    raw = payload.get("elements")
    # _has_genus_shape wants one element per lead; checking the length first
    # keeps a long list from being parsed at all
    if not isinstance(raw, list) or len(raw) != comb(genus + 2, 2):
        return None
    try:
        elements = tuple(parse_poly(text) for text in raw)
    except (ParseError, TypeError):
        return None
    if not _has_genus_shape(elements, genus) or not _is_border_basis(elements, genus):
        return None
    # The tag is handed out only if the generators reduce to zero, which does
    # not read it: the module-level normal_form never truncates.  One basis
    # object means one reducer list for the generators and the caller's later
    # normal forms.
    gb = GroebnerBasis(elements, genus=genus)
    if any(normal_form(p, gb) for p in relations_by_recursion(genus).polynomials()):
        return None
    return gb


def relation_basis_cached(genus: int, cache_dir: Optional[str]) -> GroebnerBasis:
    """The genus-g basis, read from and written to `cache_dir` when given."""
    if cache_dir is None:
        return relation_ideal_basis(genus)
    cached = load_cached_basis(cache_dir, genus)
    if cached is not None:
        return cached
    gb = relation_ideal_basis(genus)
    save_cached_basis(cache_dir, gb)
    return gb
