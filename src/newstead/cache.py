"""On-disk cache of reduced Groebner bases, one JSON file per genus.

A loaded file is never trusted.  It must be monic and sorted strictly
ascending by lead, its leads must be exactly the monomials of standard degree
g and every other term must have standard degree below g; the S-polynomials
the Gebauer-Moller update keeps (g(g+2) of them for a genus-g file) and the
relation generators must reduce to zero.  Skipping the others is still sound:
the update drops a pair only while its two leads stay linked, through leads
dividing its lcm, by kept or coprime pairs of that lcm and by pairs of
smaller lcm, so each skipped S-polynomial has an lcm-representation once the
kept ones reduce to zero.
An element list of any length but C(g+2, 2) is rejected before a single
element is parsed.  The shape checks cost time linear in the file and imply
that the set is reduced with C(g+2, 3) standard monomials.  Then it is a
Groebner basis of an ideal I containing the genus-g ideal J with
dim Q[a,b,c]/I = dim Q[a,b,c]/J, so I = J, and as the reduced basis of an
ideal is unique, the file is bit-identical to a freshly computed basis.
"""

from __future__ import annotations

import json
import os
import tempfile
from math import comb
from pathlib import Path
from typing import Optional, Sequence

from .groebner import (
    ORDER_TAG,
    GroebnerBasis,
    expected_initial_ideal,
    is_groebner_basis,
    normal_form,
    relation_ideal_basis,
)
from .relations import relations_by_recursion
from .ring import Polynomial
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
    """Nonzero, monic, sorted strictly ascending by lead, leads all monomials
    of standard degree g, tails of standard degree below g.  Linear time.

    Leads of one degree never divide one another and tails below that degree
    are standard, so such a set is reduced and its standard monomials are
    the C(g+2, 3) monomials of degree below g."""
    if any(not p or p.leading_coefficient() != 1 for p in elements):
        return False
    leads = [p.leading_monomial() for p in elements]
    keys = [m.sort_key() for m in leads]
    if any(lo >= hi for lo, hi in zip(keys, keys[1:])):
        return False
    if set(leads) != expected_initial_ideal(genus):
        return False
    return all(
        m.degree < genus for p, lm in zip(elements, leads) for m in p.terms if m != lm
    )


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
    if not _has_genus_shape(elements, genus):
        return None
    # The tag is handed out only if both checks below pass, and neither reads
    # it: the module-level normal_form never truncates.  One basis object
    # means one reducer list for the certificate, the generators and the
    # caller's later normal forms.
    gb = GroebnerBasis(elements, genus=genus)
    if not is_groebner_basis(gb) or any(
        normal_form(p, gb) for p in relations_by_recursion(genus).polynomials()
    ):
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
